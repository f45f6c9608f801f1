package repro.benchlib

/** Tiny benchmarking utilities shared by the bench suites and the
  * spark-submit jobs: wall-clock timing and markdown table rendering
  * (the tables printed by each bench are the reproduction artifacts
  * recorded in EXPERIMENTS.md).
  */
object Bench {

  /** Times a thunk; returns (result, elapsed milliseconds, fractional). */
  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Renders and prints a markdown table; returns the rendered string. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[Any]]): String = {
    val sb = new StringBuilder
    sb.append(s"\n### $title\n\n")
    sb.append(header.mkString("| ", " | ", " |")).append('\n')
    sb.append(header.map(_ => "---").mkString("| ", " | ", " |")).append('\n')
    rows.foreach(r => sb.append(r.map(fmt).mkString("| ", " | ", " |")).append('\n'))
    val s = sb.toString
    println(s)
    s
  }

  private def fmt(a: Any): String = a match {
    case d: Double => f"$d%.2f"
    case x         => String.valueOf(x)
  }
}
