package perfbench

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * --t0-ns <epoch ns> --local-dir <dir>`. Prints what it measured as one
  * JSON object on the last line of standard output (see [[Harness.json]]);
  * diagnostics, every operation's time among them, go to standard error.
  */
object Main {
  val Workloads: Seq[String] = Seq("eql-kg", "eql-cdf", "ctp-synthetic", "ctp-kg-limit")

  def main(args: Array[String]): Unit = {
    val t0Fallback = Harness.epochNanos()
    val a = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = a.getOrElse(k, sys.error(s"missing --$k"))
    val seed = need("seed").toLong
    val traced = need("trace") == "1"
    val localDir = a.getOrElse("local-dir", "spark-local")
    val w: Workload = need("workload") match {
      case "eql-kg"        => new EqlKg(seed, localDir, traced)
      case "eql-cdf"       => new EqlCdf(seed, localDir, traced)
      case "ctp-synthetic" => new CtpSynthetic
      case "ctp-kg-limit"  => new CtpKgLimit
      case other           => sys.error(s"unknown workload $other; one of ${Workloads.mkString(", ")}")
    }
    val t0 = a.get("t0-ns").map(_.toLong).getOrElse(t0Fallback)
    val out = Harness.run(w, t0, need("seconds").toDouble, traced)
    println(Harness.json(out))
    System.out.flush()
  }
}
