package repro.ctp

import scala.collection.mutable
import repro.core.InMemoryGraph

/** Exhaustive reference evaluator for set-based CTP results (Def. 2.8),
  * used as a correctness oracle in tests and never in benchmarks.
  *
  * Enumerates *every* subset of edges (up to `cfg.maxEdges`, and only on
  * graphs small enough for 2^|E| enumeration), keeping those that form a
  * tree with exactly one node from each concrete seed set, each of whose
  * leaves binds a seed set (minimality, Observation 1; an N set binds at
  * most one leaf outside the concrete sets). Honors UNI and LABEL.
  */
object BruteForce {

  val MaxEdgesForEnumeration = 22

  def run(g: InMemoryGraph, seeds: Seq[SeedSpec], cfg: CtpEvalConfig = CtpEvalConfig()): SearchOutcome = {
    require(g.numEdges <= MaxEdgesForEnumeration,
      s"BruteForce supports at most $MaxEdgesForEnumeration edges, got ${g.numEdges}")
    val ctx = new SearchContext(g, seeds, cfg)
    val budget = new SearchBudget(cfg)
    val nE = g.numEdges
    val maxSize = math.min(cfg.maxEdges, nE)
    var subset = 0L
    val limit = 1L << nE
    while (subset < limit) {
      val size = java.lang.Long.bitCount(subset)
      if (size >= 1 && size <= maxSize) {
        val edges = (0 until nE).filter(e => (subset & (1L << e)) != 0L).toArray
        check(ctx, edges).foreach(budget.addResult)
      }
      subset += 1
    }
    // Single-node results (trees of 0 edges): a node in every concrete set.
    (0 until g.numNodes).foreach { n =>
      if (ctx.seedMask(n) == ctx.fullMask)
        budget.addResult(ctx.toFound(EdgeSet.empty, ctx.bindSeeds(Array.fill(ctx.m)(-1), n)))
    }
    budget.outcome()
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
    // Minimality: every leaf is the binding of a seed set. A leaf in no
    // concrete set can only bind an N set, and each set binds one node.
    val freeLeaves = nodes.count(n => deg(n) == 1 && ctx.seedMask(n) == 0L)
    if (freeLeaves > ctx.isAllNodes.count(identity)) return None
    if (ctx.cfg.uni) {
      val t = new STree(-1, EdgeSet.sorted(edges.sorted), nodes.sorted,
        ctx.fullMask, seedsBound, isSeedPath = false, isMo = false)
      if (!nodes.exists(r => ctx.orientedReaches(t, r))) return None
    }
    Some(ctx.toFound(EdgeSet.sorted(edges.sorted), seedsBound))
  }
}
