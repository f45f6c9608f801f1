package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.benchlib._
import repro.core.{EqlEvaluator, EqlParser}
import repro.gen.GraphGen

/** Shared session builder for the spark-submit entrypoints. */
private object JobSession {
  def get(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** `spark-submit --class repro.jobs.Fig10Job` — baseline CTP algorithms. */
object Fig10Job {
  def main(args: Array[String]): Unit =
    SyntheticCtpWorkloads.render(Fig10Baselines.title, Fig10Baselines.run())
}

/** `spark-submit --class repro.jobs.Fig11Job` — GAM pruning variants. */
object Fig11Job {
  def main(args: Array[String]): Unit =
    SyntheticCtpWorkloads.render(Fig11Variants.title, Fig11Variants.run())
}

/** `spark-submit --class repro.jobs.Fig12Job` — MoLESP vs the GSTP baseline. */
object Fig12Job {
  def main(args: Array[String]): Unit =
    Fig12Qgstp.render(Fig12Qgstp.run())
}

/** `spark-submit --class repro.jobs.Fig13Job` — CDF benchmark, m=2. */
object Fig13Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("fig13")
    try CdfBench.render(2, CdfBench.run(spark, m = 2))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.Fig14Job` — CDF benchmark, m=3. */
object Fig14Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("fig14")
    try CdfBench.render(3, CdfBench.run(spark, m = 3))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.Table1Job` — J1/J2/J3 query suite. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table1")
    try Table1Bench.render(Table1Bench.run(spark))
    finally spark.stop()
  }
}

/** `spark-submit --class repro.jobs.RunEqlJob '<query>'` — evaluates an
  * EQL query over a demo CDF graph (or pass a second arg `kg` for the
  * knowledge-graph substitute) and prints the result table.
  */
object RunEqlJob {
  def main(args: Array[String]): Unit = {
    val queryText = args.headOption.getOrElse(
      """(v, tl, l) :- (x, "c", tl), (v, "g", bl), (bl, tl, *l)""")
    val spark = JobSession.get("run-eql")
    try {
      val pg = args.lift(1) match {
        case Some("kg") => GraphGen.kgraph(5000, 10000).toPropertyGraph(spark)
        case _          => GraphGen.cdf(2, nT = 50, nL = 100, sL = 3)._1.toPropertyGraph(spark)
      }
      val res = EqlEvaluator.evaluate(spark, pg, EqlParser.parse(queryText))
      res.df.show(50, truncate = false)
      res.traces.foreach(t => println(s"[trace] $t"))
    } finally spark.stop()
  }
}
