package repro.benchlib

import scala.util.Random
import repro.core.InMemoryGraph
import repro.ctp._
import repro.gen.GraphGen
import repro.gstp.Dpbf

/** Fig. 12: GAM and MoLESP vs QGSTP (DPBF stand-in) on a knowledge
  * graph, grouped by the number of seed sets m = 2..6, with UNI and
  * LIMIT 1 to align the algorithms — exactly the §5.4.3 protocol, on
  * the synthetic DBPedia substitute.
  *
  * Queries are generated so a unidirectional answer is guaranteed: m
  * forward random walks from a common apex node; the walk endpoints are
  * the 1-node seed sets.
  */
object Fig12Qgstp {

  final case class Row(m: Int, queries: Int, algo: String, avgMs: Double,
                       found: Int, timeouts: Int)

  /** Random forward walk endpoints from a random apex. */
  private def sampleQuery(g: InMemoryGraph, m: Int, rnd: Random): Option[Seq[Long]] = {
    val apex = rnd.nextInt(g.numNodes)
    val seeds = collection.mutable.LinkedHashSet.empty[Int]
    var tries = 0
    while (seeds.size < m && tries < 40 * m) {
      tries += 1
      var cur = apex
      val len = 1 + rnd.nextInt(3)
      var ok = true
      for (_ <- 0 until len if ok) {
        val outs = g.adj(cur).filter(e => g.esrc(e) == cur)
        if (outs.isEmpty) ok = false
        else cur = g.edst(outs(rnd.nextInt(outs.length)))
      }
      if (ok && cur != apex) seeds += cur
    }
    if (seeds.size == m) Some(seeds.toSeq.map(g.nodeIds)) else None
  }

  def run(numNodes: Int = 20000, extraEdges: Int = 50000,
          queriesPerM: Int = 15, timeoutMs: Long = 15000L,
          seed: Long = 5L): Seq[Row] = {
    val g = GraphGen.kgraph(numNodes, extraEdges, seed = seed).toInMemory
    val rnd = new Random(seed)
    val rows = collection.mutable.ArrayBuffer.empty[Row]
    for (m <- 2 to 6) {
      val queries = Iterator.continually(sampleQuery(g, m, rnd))
        .flatten.take(queriesPerM).toSeq
      val algos: Seq[(String, Seq[Long] => (Boolean, Boolean))] = Seq(
        "GAM" -> { q: Seq[Long] =>
          val out = GamEngine.run(g, q.map(id => NodeSeeds(Seq(id))),
            CtpEvalConfig(uni = true, limit = 1, timeoutMs = timeoutMs,
              balancedQueues = true), GamVariant.GAM)
          (out.results.nonEmpty, out.stats.timedOut)
        },
        "MoLESP" -> { q: Seq[Long] =>
          val out = GamEngine.run(g, q.map(id => NodeSeeds(Seq(id))),
            CtpEvalConfig(uni = true, limit = 1, timeoutMs = timeoutMs,
              balancedQueues = true), GamVariant.MoLESP)
          (out.results.nonEmpty, out.stats.timedOut)
        },
        "QGSTP(DPBF)" -> { q: Seq[Long] =>
          val t = Dpbf.findOne(g, q.map(id => NodeSeeds(Seq(id))),
            directed = true, timeoutMs = timeoutMs)
          (t.isDefined, t.isEmpty)
        },
      )
      for ((name, f) <- algos) {
        var totalMs = 0.0; var found = 0; var timeouts = 0
        queries.foreach { q =>
          val ((ok, to), ms) = Bench.time(f(q))
          totalMs += ms
          if (ok) found += 1
          if (to) timeouts += 1
        }
        rows += Row(m, queries.size, name,
          if (queries.isEmpty) 0.0 else totalMs / queries.size, found, timeouts)
      }
    }
    rows.toSeq
  }

  def render(rows: Seq[Row]): String =
    Bench.table("Fig. 12 — GAM & MoLESP vs QGSTP (UNI, LIMIT 1) on the KG substitute",
      Seq("m", "queries", "algo", "avgMs", "found", "timeouts"),
      rows.map(r => Seq(r.m, r.queries, r.algo, r.avgMs, r.found, r.timeouts)))
}
