package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed operation of a workload.
  *
  * `run` is the timed part. `runTraced` does the same operation while
  * recording per-layer figures into a [[Trace]]; it may do extra work
  * (the traced run never feeds the end-to-end metrics). `check` returns
  * `None` when the answer is right, else a one-line reason.
  */
trait Op {
  def label: String
  def run(): AnyRef
  def runTraced(t: Trace): AnyRef
  def check(out: AnyRef): Option[String]
  /** True when `out`, which failed its check, is exactly the wrong answer
    * that a known fault in the program gives every time; it then counts
    * as failed, not as incorrect. Any other wrong answer is incorrect.
    */
  def knownFault(out: AnyRef): Boolean = false
}

/** A benchmark workload: set-up (timed as `setup_s`), then whole rounds
  * of operations. `round(r)` for r < 0 gives warm-up rounds, which are
  * part of set-up; for r >= 0 it gives timed rounds, and the references
  * their checks need are built inside `round`, before the round's
  * operations are timed. `None` ends the timed phase early.
  */
trait Workload {
  def warmupRounds: Int
  def setUp(): Unit
  def round(r: Int): Option[Seq[Op]]
  def close(): Unit = ()
}

/** What one JVM measured. `opMs` are the timed operations' wall times
  * (in a traced run, those of the operations themselves, see
  * [[Trace.opWall]]); `layers` are the per-layer metrics of a traced run.
  * The end-to-end metrics are computed from these by `run.py`, which may
  * pool several JVMs.
  */
final case class Outcome(correct: Boolean, attempted: Int, failed: Int, setupS: Double,
                         heapPeakMb: Double, opMs: Seq[Double],
                         layers: Seq[(String, Double, String)])

/** The closed loop: one client, one operation at a time. */
object Harness {

  /** Used heap after a full collection, in MB. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Runs set-up, warm-up and the timed phase.
    *
    * The timed phase runs whole rounds, at least two, and ends at the
    * round boundary nearest to `seconds` of operation wall time: it stops
    * once the next round, at the mean round time so far, would end
    * further from `seconds` than the phase ends now. With rounds of about
    * half the phase, the round count, and with it how warm the measured
    * operations are, then stays the same when the machine runs a little
    * faster or slower.
    *
    * @param t0Nanos epoch nanoseconds at which the process started
    */
  def run(w: Workload, t0Nanos: Long, seconds: Double, traced: Boolean): Outcome = {
    def say(op: Op, ns: Long): Unit =
      Console.err.println(f"[perfbench] ${ns / 1e6}%10.3f ms  ${op.label}")
    w.setUp()
    var r = -w.warmupRounds
    while (r < 0) {
      w.round(r).getOrElse(Nil).foreach { op =>
        val a = System.nanoTime()
        op.run()
        say(op, System.nanoTime() - a)
      }
      r += 1
    }
    val setupS = (epochNanos() - t0Nanos) / 1e9

    val trace = new Trace
    val opMs = mutable.ArrayBuffer.empty[Double]
    var failed = 0
    var correct = true
    var heapPeak = liveHeapMb()
    var phaseNanos = 0L
    var more = true
    while (more) {
      w.round(r) match {
        case None => more = false
        case Some(ops) =>
          ops.foreach { op =>
            val gc0 = gcMillis()
            val a = System.nanoTime()
            val out = if (traced) op.runTraced(trace) else op.run()
            val ns = System.nanoTime() - a
            phaseNanos += ns
            opMs += ns / 1e6
            say(op, ns)
            if (traced) trace.endOp(ns / 1e6, gcMillis() - gc0)
            op.check(out).foreach { why =>
              failed += 1
              correct &&= op.knownFault(out)
              Console.err.println(s"[perfbench] FAILED ${op.label}: $why")
            }
          }
          heapPeak = math.max(heapPeak, liveHeapMb())
          r += 1
          more = r < 2 || phaseNanos * (1 + 0.5 / r) < seconds * 1e9
      }
    }
    w.close()
    require(opMs.nonEmpty, "no operation was timed")
    Console.err.println(f"[perfbench] rounds=$r ops=${opMs.length} failed=$failed " +
      f"setup_s=$setupS%.3f traced=$traced")
    if (traced) Outcome(correct, opMs.length, failed, setupS, heapPeak, trace.opMs, trace.metrics)
    else Outcome(correct, opMs.length, failed, setupS, heapPeak, opMs.toSeq, Nil)
  }

  def epochNanos(): Long = {
    val i = java.time.Instant.now()
    i.getEpochSecond * 1000000000L + i.getNano
  }

  /** The outcome as one JSON line, the interface to `run.py`. */
  def json(o: Outcome): String = {
    def num(d: Double): String =
      if (d.isNaN || d.isInfinite) "0" else java.math.BigDecimal.valueOf(d).toPlainString
    val ls = o.layers.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${o.correct}, "attempted": ${o.attempted}, "failed": ${o.failed}, """ +
      s""""setup_s": ${num(o.setupS)}, "heap_peak_mb": ${num(o.heapPeakMb)}, """ +
      s""""op_ms": [${o.opMs.map(num).mkString(", ")}], "layers": {${ls.mkString(", ")}}}"""
  }
}

/** Per-layer figures of a traced run.
  *
  * A layer's `ms` and count figures are means over the operations in
  * which the layer ran (0 when it never ran); ratios and rates are taken
  * over the run's totals; `spark.*` and `jvm.gc_ms` are means over all
  * traced operations.
  */
final class Trace {
  private val sums = mutable.HashMap.empty[String, Double].withDefaultValue(0.0)
  private val layerOps = mutable.HashMap.empty[String, Int].withDefaultValue(0)
  private val inOp = mutable.LinkedHashSet.empty[String]
  private var ops = 0
  private var opMsTotal = 0.0
  private var gcMsTotal = 0.0
  private var opOverride: Option[(Double, Double)] = None
  private val opMsAll = mutable.ArrayBuffer.empty[Double]

  /** Adds `v` to metric `name` ("layer.what"); marks the layer as run. */
  def add(name: String, v: Double): Unit = {
    sums(name) += v
    inOp += name.takeWhile(_ != '.')
  }

  /** Times `f` on a nanosecond clock into `<layer>.ms`. */
  def time[A](layer: String)(f: => A): A = {
    val a = System.nanoTime()
    val r = f
    add(s"$layer.ms", (System.nanoTime() - a) / 1e6)
    r
  }

  /** Sum of the layer times recorded so far. */
  def snapshotMs(): Double =
    Seq("bgp", "seeds", "graph_build", "prune", "search").map(l => sums(s"$l.ms")).sum

  /** Sets the operation's own wall and GC time, when the traced
    * operation does more than the operation itself.
    */
  def opWall(ms: Double, gcMs: Double): Unit = opOverride = Some((ms, gcMs))

  def endOp(harnessMs: Double, harnessGcMs: Long): Unit = {
    val (opMs, gcMs) = opOverride.getOrElse((harnessMs, harnessGcMs.toDouble))
    opOverride = None
    inOp.foreach(l => layerOps(l) += 1)
    inOp.clear()
    ops += 1
    opMsTotal += opMs
    gcMsTotal += gcMs
    opMsAll += opMs
  }

  /** Wall times of the traced operations themselves. */
  def opMs: Seq[Double] = opMsAll.toSeq

  private def perLayerOp(name: String): Double = {
    val n = layerOps(name.takeWhile(_ != '.'))
    if (n == 0) 0.0 else sums(name) / n
  }
  private def perOp(name: String): Double = if (ops == 0) 0.0 else sums(name) / ops
  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def metrics: Seq[(String, Double, String)] = {
    val layered = Seq(
      "bgp.ms" -> "ms", "bgp.rows" -> "count", "bgp.spark_tasks" -> "count",
      "seeds.ms" -> "ms", "seeds.nodes" -> "count", "seeds.spark_jobs" -> "count",
      "graph_build.ms" -> "ms", "graph_build.edges" -> "count",
      "prune.ms" -> "ms", "prune.edges_in" -> "count", "prune.edges_out" -> "count",
      "search.ms" -> "ms", "search.provenances" -> "count", "search.kept" -> "count",
      "search.grows" -> "count", "search.merges" -> "count", "search.pruned" -> "count",
      "search.results" -> "count",
      "dpbf.ms" -> "ms", "dpbf.tree_edges" -> "count",
      "tail.ms" -> "ms", "tail.rows_out" -> "count", "tail.shuffle_records" -> "count",
      "tail.spark_tasks" -> "count",
    ).map { case (n, u) => (n, perLayerOp(n), u) }
    val derived = Seq(
      ("prune.removed_ratio",
        ratio(sums("prune.edges_in") - sums("prune.edges_out"), sums("prune.edges_in")), "ratio"),
      ("search.provenances_per_s",
        ratio(sums("search.provenances"), sums("search.ms") / 1000.0), "1/s"),
      ("search.kept_ratio", ratio(sums("search.kept"), sums("search.provenances")), "ratio"),
      ("search.share", ratio(sums("search.ms"), opMsTotal), "ratio"),
    )
    val substrate = Seq(
      "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.shuffle_write_bytes" -> "bytes",
      "spark.executor_run_ms" -> "ms",
    ).map { case (n, u) => (n, perOp(n), u) } :+
      (("jvm.gc_ms", if (ops == 0) 0.0 else gcMsTotal / ops, "ms"))
    layered ++ derived ++ substrate
  }
}
