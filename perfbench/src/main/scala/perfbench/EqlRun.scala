package perfbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.core._
import repro.ctp._
import repro.gx.SeedDistances

/** One EQL operation: query text in, collected result rows out. */
final class EqlRun(spark: SparkSession, g: PropertyGraph, listener: LayerListener,
                   opts: EqlOptions = EqlOptions()) {

  def run(text: String): Array[Row] =
    EqlEvaluator.evaluate(spark, g, EqlParser.parse(text), opts).df.collect()

  /** The traced operation, in two passes.
    *
    * The layer pass calls each layer's public entry point in the order
    * `EqlEvaluator.evaluate` does and times it; BGP tables it caches are
    * uncached again, so the second pass starts from the same cache state.
    * The evaluate pass runs the operation as `run` does; its wall time
    * minus the layer times is the remainder `tail.ms` (CTP-table
    * conversion and the step (C) join, which have no public entry point).
    */
  def runTraced(text: String, t: Trace): Array[Row] = {
    val ll = listener
    LayerListener.drain(spark)
    ll.reset()
    val q = EqlParser.parse(text)
    val ours = mutable.ArrayBuffer.empty[DataFrame]
    val layerMs0 = t.snapshotMs()
    val tables = t.time("bgp") {
      LayerListener.tagged(spark, "bgp") {
        q.bgps.map { b =>
          val df = BgpCompiler.compile(g, b)
          if (!SparkSide.isCached(df)) { df.cache(); ours += df }
          t.add("bgp.rows", df.count().toDouble)
          (b, df)
        }
      }
    }
    lazy val mem = {
      val m = t.time("graph_build") {
        LayerListener.tagged(spark, "graph_build")(InMemoryGraph.fromPropertyGraph(g))
      }
      t.add("graph_build.edges", m.numEdges.toDouble)
      m
    }
    val layerResults = q.ctps.map { ctp =>
      val specs = t.time("seeds") {
        LayerListener.tagged(spark, "seeds")(ctp.members.map(m => EqlEvaluator.seedSpec(g, m, tables)))
      }
      val sizes = specs.map {
        case NodeSeeds(ids) => ids.size.toLong
        case AllNodeSeeds   => -1L
      }
      t.add("seeds.nodes", sizes.filter(_ >= 0).sum.toDouble)
      val concrete = sizes.filter(_ >= 0)
      val balanced = opts.autoBalance > 0 && concrete.nonEmpty &&
        (concrete.max >= opts.autoBalance.toLong * math.max(1L, concrete.min) || sizes.contains(-1L))
      val cfg = EqlEvaluator.configFor(ctp, opts, balanced)
      val graph =
        if (opts.graphxPrune && cfg.maxEdges != Int.MaxValue && !specs.contains(AllNodeSeeds)) {
          val full = mem
          val pruned = t.time("prune") {
            LayerListener.tagged(spark, "prune") {
              SeedDistances.pruneForCtp(spark, g, full, specs.collect { case NodeSeeds(ids) => ids },
                cfg.maxEdges)
            }
          }
          t.add("prune.edges_in", full.numEdges.toDouble)
          t.add("prune.edges_out", pruned.numEdges.toDouble)
          pruned
        } else mem
      val out = t.time("search") {
        GamEngine.run(new SearchContext(graph, specs, cfg), GamVariant.byName(opts.algorithm))
      }
      (out.results.size, balanced)
    }
    ours.foreach(_.unpersist(blocking = true))
    LayerListener.drain(spark)
    ll.byLayer.get("bgp").foreach(c => t.add("bgp.spark_tasks", c.tasks.toDouble))
    ll.byLayer.get("seeds").foreach(c => t.add("seeds.spark_jobs", c.jobs.toDouble))
    val layerMs = t.snapshotMs() - layerMs0

    ll.reset()
    val gc0 = Harness.gcMillis()
    val a = System.nanoTime()
    val res = LayerListener.tagged(spark, "evaluate")(EqlEvaluator.evaluate(spark, g, EqlParser.parse(text), opts))
    val rows = LayerListener.tagged(spark, "tail")(res.df.collect())
    val totalMs = (System.nanoTime() - a) / 1e6
    val gcMs = Harness.gcMillis() - gc0
    LayerListener.drain(spark)

    res.traces.zip(layerResults).foreach { case (tr, (n, balanced)) =>
      val s = tr.stats
      t.add("search.provenances", s.provenances.toDouble)
      t.add("search.kept", s.kept.toDouble)
      t.add("search.grows", s.grows.toDouble)
      t.add("search.merges", s.merges.toDouble)
      t.add("search.pruned", s.pruned.toDouble)
      t.add("search.results", tr.numResults.toDouble)
      if (tr.numResults != n || tr.balanced != balanced)
        Console.err.println(s"[perfbench] layer pass differs from evaluate on ${tr.treeVar}: " +
          s"results ${tr.numResults} vs $n, balanced ${tr.balanced} vs $balanced")
    }
    t.add("tail.ms", totalMs - layerMs)
    t.add("tail.rows_out", rows.length.toDouble)
    ll.byLayer.get("tail").foreach { c =>
      t.add("tail.shuffle_records", c.shuffleRecords.toDouble)
      t.add("tail.spark_tasks", c.tasks.toDouble)
    }
    ll.byLayer.values.foreach { c =>
      t.add("spark.jobs", c.jobs.toDouble)
      t.add("spark.tasks", c.tasks.toDouble)
      t.add("spark.shuffle_write_bytes", c.shuffleBytes.toDouble)
      t.add("spark.executor_run_ms", c.runMs.toDouble)
    }
    t.opWall(totalMs, gcMs.toDouble)
    rows
  }
}

/** An EQL operation whose answer must equal `expected` as a set of rows;
  * `rowFault` is checked on every row first. `faulty` is the wrong answer
  * a known fault in the program gives, when there is one.
  */
final class EqlOp(val label: String, text: String, runner: => EqlRun,
                  val expected: Set[Seq[Any]],
                  rowFault: Seq[Any] => Option[String] = _ => None,
                  val faulty: Option[Set[Seq[Any]]] = None) extends perfbench.Op {
  def run(): AnyRef = runner.run(text)
  override def runTraced(t: Trace): AnyRef = runner.runTraced(text, t)
  def check(out: AnyRef): Option[String] = {
    val rows = EqlRun.rowSet(out)
    rows.iterator.flatMap(rowFault).nextOption().orElse(EqlRun.compare(rows, expected))
  }
  override def knownFault(out: AnyRef): Boolean = faulty.contains(EqlRun.rowSet(out))
}

object EqlRun {
  /** Collected rows as a set of plain tuples, for comparison. */
  def rowSet(out: AnyRef): Set[Seq[Any]] =
    out.asInstanceOf[Array[Row]].iterator.map(_.toSeq).toSet

  /** Compares two row sets; names a few differences when they differ. */
  def compare(got: Set[Seq[Any]], want: Set[Seq[Any]]): Option[String] =
    if (got == want) None
    else {
      val missing = want -- got
      val extra = got -- want
      Some(s"${got.size} rows, expected ${want.size}; missing ${missing.size} " +
        s"(e.g. ${missing.take(2).mkString("; ")}), unexpected ${extra.size} " +
        s"(e.g. ${extra.take(2).mkString("; ")})")
    }
}
