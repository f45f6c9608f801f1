package repro.ctp

import scala.collection.mutable
import repro.core.InMemoryGraph

/** Exhaustive reference evaluator for set-based CTP results (Def. 2.8),
  * used as a correctness oracle in tests and never in benchmarks.
  *
  * Enumerates *every* subset of edges (up to `cfg.maxEdges`, and only on
  * graphs small enough for 2^|E| enumeration), keeping those that form a
  * tree with exactly one node from each concrete seed set, all of whose
  * leaves are seeds (minimality, Observation 1). Honors UNI and LABEL.
  */
object BruteForce {

  val MaxEdgesForEnumeration = 22

  def run(g: InMemoryGraph, seeds: Seq[SeedSpec], cfg: CtpEvalConfig = CtpEvalConfig()): SearchOutcome = {
    require(g.numEdges <= MaxEdgesForEnumeration,
      s"BruteForce supports at most $MaxEdgesForEnumeration edges, got ${g.numEdges}")
    val t0 = System.nanoTime()
    val ctx = new SearchContext(g, seeds, cfg)
    val results = mutable.ArrayBuffer.empty[FoundTree]
    val nE = g.numEdges
    val maxSize = math.min(cfg.maxEdges, nE)
    var subset = 0L
    val limit = 1L << nE
    while (subset < limit) {
      val size = java.lang.Long.bitCount(subset)
      if (size >= 1 && size <= maxSize) {
        val edges = (0 until nE).filter(e => (subset & (1L << e)) != 0L).toArray
        check(ctx, edges).foreach(results += _)
      }
      subset += 1
    }
    // Single-node results (trees of 0 edges): a node in every concrete set.
    (0 until g.numNodes).foreach { n =>
      if (ctx.seedMask(n) == ctx.fullMask && ctx.fullMask != 0L) {
        val seeds0 = Array.fill(ctx.m)(-1)
        var i = 0
        while (i < ctx.m) { if (!ctx.isAllNodes(i)) seeds0(i) = n; i += 1 }
        results += ctx.toFound(EdgeSet.empty, seeds0)
      }
    }
    SearchOutcome(ctx.applyTopK(results.toVector),
      SearchStats(0, 0, 0, 0, 0, (System.nanoTime() - t0) / 1e6, timedOut = false))
  }

  /** Validates one candidate edge subset; returns its FoundTree if it is
    * a minimal connecting tree for the CTP.
    */
  private def check(ctx: SearchContext, edges: Array[Int]): Option[FoundTree] = {
    val g = ctx.g
    if (!edges.forall(ctx.edgeAllowed)) return None
    // Collect nodes and degrees.
    val deg = mutable.HashMap.empty[Int, Int]
    edges.foreach { e =>
      if (g.esrc(e) == g.edst(e)) return None // self loops never in trees
      deg(g.esrc(e)) = deg.getOrElse(g.esrc(e), 0) + 1
      deg(g.edst(e)) = deg.getOrElse(g.edst(e), 0) + 1
    }
    val nodes = deg.keys.toArray
    if (nodes.length != edges.length + 1) return None // not a tree (or multi-edge cycle)
    // Connectivity (undirected).
    val adjacency = mutable.HashMap.empty[Int, List[Int]]
    edges.foreach { e =>
      adjacency(g.esrc(e)) = e :: adjacency.getOrElse(g.esrc(e), Nil)
      adjacency(g.edst(e)) = e :: adjacency.getOrElse(g.edst(e), Nil)
    }
    val seen = mutable.HashSet(nodes(0))
    var stack = List(nodes(0))
    while (stack.nonEmpty) {
      val n = stack.head; stack = stack.tail
      adjacency.getOrElse(n, Nil).foreach { e =>
        val o = g.other(e, n)
        if (seen.add(o)) stack = o :: stack
      }
    }
    if (seen.size != nodes.length) return None
    // Exactly one node from each concrete seed set; record bindings.
    val seedsBound = Array.fill(ctx.m)(-1)
    nodes.foreach { n =>
      var msk = ctx.seedMask(n)
      var i = 0
      while (msk != 0L) {
        if ((msk & 1L) != 0L) {
          if (seedsBound(i) >= 0) return None // two nodes from one set
          seedsBound(i) = n
        }
        msk >>>= 1; i += 1
      }
    }
    if ((0 until ctx.m).exists(i => !ctx.isAllNodes(i) && seedsBound(i) < 0))
      return None
    // Minimality: every leaf is a seed — for N seed sets every node is a
    // seed, so only concrete-set membership disqualifies a leaf.
    val anyAll = ctx.isAllNodes.exists(identity)
    val leavesOk = nodes.forall { n =>
      deg(n) > 1 || ctx.seedMask(n) != 0L || anyAll
    }
    if (!leavesOk) return None
    if (ctx.cfg.uni) {
      val t = new STree(-1, EdgeSet.sorted(edges.sorted), nodes.sorted,
        ctx.fullMask, seedsBound, isSeedPath = false, isMo = false)
      if (!nodes.exists(r => ctx.orientedReaches(t, r))) return None
    }
    Some(ctx.toFound(EdgeSet.sorted(edges.sorted), seedsBound))
  }
}
