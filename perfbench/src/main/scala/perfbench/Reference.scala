package perfbench

import scala.collection.mutable
import repro.core.{GEdge, GNode}

/** Plain-Scala view of a generated graph, built from its node and edge
  * lists, for computing reference answers apart from the program.
  * Node and edge ids must be dense (0 until n), as the generators make them.
  */
final class RefGraph(val nodes: IndexedSeq[GNode], val edges: IndexedSeq[GEdge]) {
  require(nodes.indices.forall(i => nodes(i).id == i), "node ids must be dense")
  require(edges.indices.forall(i => edges(i).id == i), "edge ids must be dense")
  val n: Int = nodes.length

  private def adjacency(end: GEdge => Long): Array[Array[Int]] = {
    val b = Array.fill(n)(mutable.ArrayBuilder.make[Int])
    edges.foreach(e => b(end(e).toInt) += e.id.toInt)
    b.map(_.result())
  }
  val out: Array[Array[Int]] = adjacency(_.src)
  val in: Array[Array[Int]] = adjacency(_.dst)

  /** Nodes satisfying `p` that have an outgoing edge whose label passes `edge`. */
  def sourcesOf(p: GNode => Boolean, edge: String => Boolean): Set[Long] =
    nodes.iterator.filter(v => p(v) && out(v.id.toInt).exists(e => edge(edges(e).label)))
      .map(_.id).toSet

  /** A tree's value as the program prints it: sorted edge ids, comma-separated. */
  def key(es: Iterable[Int]): String = es.toArray.sorted.mkString(",")
}

object RefGraph {
  def apply(nodes: IndexedSeq[GNode], edges: IndexedSeq[GEdge]): RefGraph = new RefGraph(nodes, edges)

  /** Answers of a UNI connecting-tree pattern with two members.
    *
    * A minimal tree connecting two nodes is a simple path; under UNI some
    * node of the path reaches both ends along edge directions, so the path
    * climbs against the edges from one end to that apex, then follows the
    * edges to the other end. Each path is enumerated once, from its
    * `from` end, by that decomposition.
    *
    * Two concrete members (`to = Some(set)`): one end in each set, no
    * other node of the path in either set; a node in both sets is a
    * 0-edge answer on its own. A member ranging over all nodes
    * (`to = None`): every path with one end in `from`, and the 0-edge tree.
    *
    * With `climbOnly`, only the paths whose edges all point towards their
    * `from` end (the apex is the other end, or the `from` end itself for
    * the 0-edge tree).
    *
    * @return (from-end, other end or -1 for an all-nodes member, tree)
    */
  def uniPaths(g: RefGraph, from: Set[Long], to: Option[Set[Long]],
               labels: Set[String], maxEdges: Int,
               climbOnly: Boolean = false): Set[(Long, Long, String)] = {
    val inFrom = new Array[Boolean](g.n); from.foreach(v => inFrom(v.toInt) = true)
    val inTo = new Array[Boolean](g.n); to.foreach(_.foreach(v => inTo(v.toInt) = true))
    val anyEnd = to.isEmpty
    val res = mutable.HashSet.empty[(Long, Long, String)]
    val onPath = new Array[Boolean](g.n)
    val path = mutable.ArrayBuffer.empty[Int]

    def emit(u: Int, v: Int): Unit =
      res += ((u.toLong, if (anyEnd) -1L else v.toLong, g.key(path)))
    // What reaching node v means: an answer end, a node to walk through, or neither.
    def isEnd(v: Int): Boolean = anyEnd || (inTo(v) && !inFrom(v))
    def passes(v: Int): Boolean = anyEnd || (!inTo(v) && !inFrom(v))

    def down(u: Int, cur: Int, budget: Int): Unit =
      if (budget > 0) g.out(cur).foreach { e =>
        val ed = g.edges(e); val v = ed.dst.toInt
        if (labels(ed.label) && !onPath(v)) {
          onPath(v) = true; path += e
          if (isEnd(v)) emit(u, v)
          if (passes(v)) down(u, v, budget - 1)
          onPath(v) = false; path.remove(path.length - 1)
        }
      }

    def up(u: Int, cur: Int, budget: Int): Unit =
      if (budget > 0) g.in(cur).foreach { e =>
        val ed = g.edges(e); val v = ed.src.toInt
        if (labels(ed.label) && !onPath(v)) {
          onPath(v) = true; path += e
          if (isEnd(v)) emit(u, v)
          if (passes(v)) { if (!climbOnly) down(u, v, budget - 1); up(u, v, budget - 1) }
          onPath(v) = false; path.remove(path.length - 1)
        }
      }

    from.foreach { u0 =>
      val u = u0.toInt
      if (anyEnd || inTo(u)) res += ((u0, if (anyEnd) -1L else u0, ""))
      if (anyEnd || !inTo(u)) {
        onPath(u) = true
        if (!climbOnly) down(u, u, maxEdges)
        up(u, u, maxEdges)
        onPath(u) = false
      }
    }
    res.toSet
  }
}

/** Checks one connecting tree against the graph's edge list: the edges
  * exist, they form a tree, it holds exactly one node of each seed set,
  * every leaf is one of those seeds, and under UNI some node reaches
  * every node along edge directions.
  */
object TreeCheck {

  /** @return the bound seed per set, or the reason the tree is wrong */
  def apply(g: RefGraph, edgeIds: Seq[Long], seedSets: Seq[Set[Long]],
            uni: Boolean): Either[String, Seq[Long]] = {
    if (edgeIds.isEmpty) return Left("empty tree")
    if (edgeIds.distinct.length != edgeIds.length) return Left("repeated edge")
    if (!edgeIds.forall(e => e >= 0 && e < g.edges.length)) return Left("unknown edge id")
    val es = edgeIds.map(e => g.edges(e.toInt))
    val deg = mutable.HashMap.empty[Long, Int].withDefaultValue(0)
    es.foreach { e => deg(e.src) += 1; deg(e.dst) += 1 }
    if (es.exists(e => e.src == e.dst)) return Left("self loop")
    val nodes = deg.keySet
    if (nodes.size != es.length + 1) return Left("not a tree (cycle or parallel edges)")
    val adj = mutable.HashMap.empty[Long, List[Long]].withDefaultValue(Nil)
    es.foreach { e => adj(e.src) ::= e.dst; adj(e.dst) ::= e.src }
    val seen = mutable.HashSet(nodes.head)
    var stack = List(nodes.head)
    while (stack.nonEmpty) {
      val v = stack.head; stack = stack.tail
      adj(v).foreach(w => if (seen.add(w)) stack ::= w)
    }
    if (seen.size != nodes.size) return Left("not connected")
    val bound = seedSets.zipWithIndex.map { case (s, i) =>
      val hit = nodes.filter(s.contains)
      if (hit.size != 1) return Left(s"${hit.size} nodes of seed set $i")
      hit.head
    }
    val leaves = nodes.filter(deg(_) == 1)
    if (!leaves.forall(bound.contains)) return Left("a leaf is not a seed")
    if (uni) {
      val outs = es.groupBy(_.src).map { case (k, v) => k -> v.map(_.dst) }.withDefaultValue(Nil)
      val roots = nodes.filter(v => !es.exists(_.dst == v))
      val ok = roots.size == 1 && {
        val reach = mutable.HashSet(roots.head)
        var st = List(roots.head)
        while (st.nonEmpty) {
          val v = st.head; st = st.tail
          outs(v).foreach(w => if (reach.add(w)) st ::= w)
        }
        reach.size == nodes.size
      }
      if (!ok) return Left("no UNI apex")
    }
    Right(bound)
  }

  def parse(tree: String): Seq[Long] =
    if (tree.isEmpty) Nil else tree.split(',').toSeq.map(_.toLong)
}
