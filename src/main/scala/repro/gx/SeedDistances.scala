package repro.gx

import org.apache.spark.sql.SparkSession
import repro.core.{InMemoryGraph, PropertyGraph}

/** Seed-distance pruning for CTPs with a MAX filter.
  *
  * A node can only appear in a CTP result if it reaches every concrete
  * seed set, and in a result of ≤ MAX edges only if its distance to every
  * such set is ≤ MAX (any tree containing node v and a seed s contains
  * the tree path v⇝s, which is at least dist(v, s) edges long). Edges are
  * traversed in both directions (requirement R3), so the bound is sound
  * under UNI too.
  *
  * The distances come from one bounded BFS per seed set over the
  * driver's [[InMemoryGraph]], the graph the search itself runs on (§5.1
  * loads the graph in memory before evaluating CTPs).
  */
object SeedDistances {

  val Unreachable: Int = Int.MaxValue

  /** Undirected distance from each node (dense index) to the nearest of
    * `seeds` (external ids; ids absent from `g` are ignored), or
    * [[Unreachable]] beyond `maxDepth` edges.
    */
  def distances(g: InMemoryGraph, seeds: Seq[Long], maxDepth: Int): Array[Int] = {
    val dist = Array.fill(g.numNodes)(Unreachable)
    val queue = new Array[Int](g.numNodes)
    var tail = 0
    seeds.foreach { id =>
      val n = g.nodeIndex(id)
      if (n >= 0 && dist(n) != 0) { dist(n) = 0; queue(tail) = n; tail += 1 }
    }
    var head = 0
    while (head < tail) {
      val n = queue(head)
      head += 1
      val d = dist(n)
      if (d < maxDepth) {
        val es = g.adj(n)
        var j = 0
        while (j < es.length) {
          val o = g.other(es(j), n)
          if (dist(o) == Unreachable) { dist(o) = d + 1; queue(tail) = o; tail += 1 }
          j += 1
        }
      }
    }
    dist
  }

  /** Keep-mask over the dense node indices of `g`: node v is kept iff
    * dist(v, S_i) ≤ `maxEdges` for every seed set S_i.
    */
  def feasibleNodeFilter(g: InMemoryGraph, seedSets: Seq[Seq[Long]],
                         maxEdges: Int): Array[Boolean] = {
    val keep = Array.fill(g.numNodes)(true)
    seedSets.foreach { set =>
      val d = distances(g, set, maxEdges)
      var i = 0
      while (i < g.numNodes) { if (d(i) == Unreachable) keep(i) = false; i += 1 }
    }
    keep
  }

  /** Restricts `g` to the nodes that may lie on a result of ≤ `maxEdges`
    * edges connecting `seedSets`; returns `g` itself when every node may.
    */
  def prune(g: InMemoryGraph, seedSets: Seq[Seq[Long]], maxEdges: Int): InMemoryGraph = {
    val keep = feasibleNodeFilter(g, seedSets, maxEdges)
    if (keep.forall(identity)) g else g.inducedSubgraph(keep)
  }

  /** [[prune]] under the signature benchmark harnesses call; `spark` and
    * `pg` are unused.
    */
  def pruneForCtp(spark: SparkSession, pg: PropertyGraph, g: InMemoryGraph,
                  seedSets: Seq[Seq[Long]], maxEdges: Int): InMemoryGraph =
    prune(g, seedSets, maxEdges)
}
