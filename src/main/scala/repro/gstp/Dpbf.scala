package repro.gstp

import scala.collection.mutable
import repro.core.InMemoryGraph
import repro.ctp.{CtpEvalConfig, EdgeSet, FoundTree, NodeSeeds, SearchBudget, SearchContext, SeedSpec}

/** DPBF — "Finding top-k min-cost connected trees in databases" (Ding et
  * al., ICDE 2007): best-first dynamic programming over (root, covered
  * seed-set subset) states. This is the classical exact Group-Steiner
  * baseline that QGSTP [39] builds on; we use it as the paper's QGSTP
  * stand-in (the authors' code/testbed is unavailable): like QGSTP it
  * uses a *fixed* cost function (edge count), returns exactly *one*
  * (optimal) tree, and explores unidirectionally when asked.
  */
object Dpbf {

  /** One solved state with provenance for tree reconstruction. */
  private sealed trait How
  private case object Init extends How
  private final case class Grown(edge: Int, from: Long) extends How
  private final case class Merged(a: Long, b: Long) extends How

  /** Finds the minimum-edge-count tree connecting one seed from each
    * set, or None when the sets are not connected (within `maxEdges`).
    *
    * @param directed when true, the returned tree has a root with
    *                 directed paths to every seed (matches UNI)
    */
  def findOne(g: InMemoryGraph, seeds: Seq[SeedSpec], directed: Boolean,
              maxEdges: Int = Int.MaxValue,
              timeoutMs: Long = 600000L): Option[FoundTree] = {
    seeds.foreach(s => require(s.isInstanceOf[NodeSeeds], "DPBF needs concrete seed sets"))
    val nodeBits = 32 - Integer.numberOfLeadingZeros(g.numNodes)
    require(seeds.size + nodeBits <= 63,
      s"DPBF state keys pack a node index and a seed-set mask into one Long: " +
        s"${seeds.size} seed sets and ${g.numNodes} nodes ($nodeBits bits) exceed 63 bits")
    val cfg = CtpEvalConfig(uni = directed, maxEdges = maxEdges, timeoutMs = timeoutMs)
    val ctx = new SearchContext(g, seeds, cfg)
    val budget = new SearchBudget(cfg)
    val m = ctx.m
    val full = ctx.fullMask

    // Unique while m + node bits <= 63 (checked above).
    def key(v: Int, x: Long): Long = v.toLong << m | x

    val best = mutable.HashMap.empty[Long, Int]
    val how = mutable.HashMap.empty[Long, How]
    val settled = mutable.HashSet.empty[Long]
    // (cost, v, X); min-heap by cost.
    val pq = mutable.PriorityQueue.empty(
      Ordering.by((t: (Int, Int, Long)) => -t._1))

    def offer(v: Int, x: Long, c: Int, h: How): Unit = {
      val k = key(v, x)
      if (c <= maxEdges && best.get(k).forall(c < _)) {
        best(k) = c; how(k) = h; pq.enqueue((c, v, x))
      }
    }

    var i = 0
    while (i < m) {
      ctx.seedSets(i).foreach(s => offer(s, ctx.seedMask(s), 0, Init))
      i += 1
    }

    var goal: Long = -1L
    while (goal < 0 && pq.nonEmpty) {
      budget.checkClock()
      if (budget.timedOut) return None
      val (c, v, x) = pq.dequeue()
      val k = key(v, x)
      if (best(k) == c && settled.add(k)) {
        if (x == full) goal = k
        else {
          // Edge growth: move the root across one edge.
          val es = g.adj(v)
          var j = 0
          while (j < es.length) {
            val e = es(j)
            val u = g.other(e, v)
            // Directed mode mirrors UNI reverse-growth: edge u -> v.
            if (u != v && (!directed || (g.esrc(e) == u && g.edst(e) == v))) {
              // A root u that is a seed of a set already covered would
              // put two nodes of that set in the tree.
              if ((ctx.seedMask(u) & x) == 0L)
                offer(u, x | ctx.seedMask(u), c + 1, Grown(e, k))
            }
            j += 1
          }
          // Merge with settled complementary states at the same root,
          // iterating the non-empty subsets of the uncovered mask.
          val comp = full ^ x
          var y = comp
          while (y != 0L) {
            val k2 = key(v, y)
            best.get(k2) match {
              case Some(c2) if settled.contains(k2) =>
                offer(v, x | y, c + c2, Merged(k, k2))
              case _ => ()
            }
            y = (y - 1) & comp
          }
        }
      }
    }

    if (goal < 0) None
    else {
      // Reconstruct the edge set and seed bindings.
      val edges = mutable.SortedSet.empty[Int]
      val seedsBound = Array.fill(m)(-1)
      def rec(k: Long): Unit = {
        // Every tree node is the root of some sub-state; bind its seeds.
        ctx.bindSeeds(seedsBound, (k >>> m).toInt)
        how(k) match {
          case Init           => ()
          case Grown(e, from) => edges += e; rec(from)
          case Merged(a, b)   => rec(a); rec(b)
        }
      }
      rec(goal)
      Some(ctx.toFound(EdgeSet.sorted(edges.toArray), seedsBound))
    }
  }
}
