package repro.ctp

import org.scalatest.funsuite.AnyFunSuite
import TestSupport._

/** Unit tests of the shared Grow/Merge/INIT/minimize machinery. */
class SearchContextSpec extends AnyFunSuite {

  // 0 -> 1 -> 2 -> 3, plus 1 -> 4 (branch).
  private val g = labeledGraph(
    (0L, "a", 1L), (1L, "b", 2L), (2L, "a", 3L), (1L, "c", 4L))

  private def ctx(cfg: CtpEvalConfig = CtpEvalConfig()) =
    new SearchContext(g, seeds(Seq(0L), Seq(3L)), cfg)

  test("init binds all the node's seed sets") {
    val c = new SearchContext(g, seeds(Seq(0L), Seq(0L, 3L)), CtpEvalConfig())
    val t = c.init(g.nodeIndex(0L))
    assert(t.sat == 3L)
    assert(t.seeds.toSeq == Seq(g.nodeIndex(0L), g.nodeIndex(0L)))
    assert(t.isSeedPath)
    assert(c.isResult(t)) // node 0 satisfies both sets
  }

  test("grow respects Grow1 (no revisits)") {
    val c = ctx()
    val t0 = c.init(g.nodeIndex(0L))
    assert(c.canGrow(t0, t0.root, 0))
    val t1 = c.grow(t0, t0.root, 0) // now at node 1
    assert(!c.canGrow(t1, t1.root, 0)) // back to node 0: already in tree
    assert(!c.canGrow(t1, t0.root, 0)) // edge 0 is in the tree
  }

  test("grow respects Grow2 (no second node from a satisfied set)") {
    val c = new SearchContext(g, seeds(Seq(0L, 4L), Seq(3L)), CtpEvalConfig())
    val t0 = c.init(g.nodeIndex(0L))
    val t1 = c.grow(t0, t0.root, 0)
    assert(!c.canGrow(t1, t1.root, 3)) // node 4 is another S1 seed
    assert(c.canGrow(t1, t1.root, 1))
  }

  test("grow tracks isSeedPath and ss-relevant shape") {
    val c = ctx()
    val t0 = c.init(g.nodeIndex(0L))
    val t1 = c.grow(t0, t0.root, 0)
    assert(t1.isSeedPath) // 0 -> 1, one seed
    val t2 = c.grow(t1, t1.root, 1)
    assert(t2.isSeedPath)
    val t3 = c.grow(t2, t2.root, 2) // reaches seed 3
    assert(!t3.isSeedPath) // two seeds now
    assert(c.isResult(t3))
  }

  test("merge requires shared root only and compatible sats") {
    val c = ctx()
    val a0 = c.init(g.nodeIndex(0L))
    val a = c.grow(a0, a0.root, 0) // rooted at 1, nodes {0,1}
    val b0 = c.init(g.nodeIndex(3L))
    val b1 = c.grow(b0, b0.root, 2) // rooted at 2
    val b2 = c.grow(b1, b1.root, 1) // rooted at 1, nodes {3,2,1}
    assert(c.canMerge(a, b2, a.root))
    val m = c.merge(a, b2)
    assert(m.size == 3)
    assert(c.isResult(m))
    assert(!c.canMerge(a, b1, a.root)) // no shared node
    assert(!c.canMerge(a, b2, a0.root)) // node 0 is not the shared node
  }

  test("merge allows sat overlap exactly at a seed root (§4.5 walkthrough)") {
    // Path A - x - B - y - C with seeds A, B, C; trees A-x-B (rooted B)
    // and B-y-C (rooted B) share seed B.
    val pg = graph((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L))
    val c = new SearchContext(pg, seeds(Seq(0L), Seq(2L), Seq(4L)), CtpEvalConfig())
    val l0 = c.init(pg.nodeIndex(0L))
    val l1 = c.grow(l0, l0.root, 0)
    val left = c.grow(l1, l1.root, 1) // rooted 2
    val r0 = c.init(pg.nodeIndex(4L))
    val r1 = c.grow(r0, r0.root, 3)
    val right = c.grow(r1, r1.root, 2) // rooted 2
    assert((left.sat & right.sat) != 0L) // both contain B's set
    assert(c.canMerge(left, right, left.root))
    assert(c.isResult(c.merge(left, right)))
  }

  test("minimize strips non-seed leaves repeatedly") {
    val c = ctx()
    // Build an unrooted tree with the junk branch 1 -> 4.
    val all = new STree(-1, EdgeSet.of(0, 1, 2, 3),
      Array(0, 1, 2, 3, 4).map(i => g.nodeIndex(i.toLong)).sorted,
      3L, Array(g.nodeIndex(0L), g.nodeIndex(3L)), isSeedPath = false, isMo = false)
    val min = c.minimize(all)
    assert(min == EdgeSet.of(0, 1, 2))
  }

  test("orientedReaches follows directions only") {
    val c = ctx()
    val t = new STree(g.nodeIndex(0L), EdgeSet.of(0, 1, 2),
      Array(0L, 1L, 2L, 3L).map(g.nodeIndex).sorted, 3L,
      Array(g.nodeIndex(0L), g.nodeIndex(3L)), isSeedPath = false, isMo = false)
    assert(c.orientedReaches(t, g.nodeIndex(0L)))
    assert(!c.orientedReaches(t, g.nodeIndex(3L)))
    assert(!c.orientedReaches(t, g.nodeIndex(1L)))
  }

  test("moReroot honors UNI validity") {
    val c = ctx(CtpEvalConfig(uni = true))
    val t = new STree(g.nodeIndex(3L), EdgeSet.of(0, 1, 2),
      Array(0L, 1L, 2L, 3L).map(g.nodeIndex).sorted, 3L,
      Array(g.nodeIndex(0L), g.nodeIndex(3L)), isSeedPath = false, isMo = false)
    assert(c.moReroot(t, g.nodeIndex(0L)).isDefined) // 0 reaches all
    assert(c.moReroot(t, g.nodeIndex(3L)).isEmpty)
    val cBidi = ctx()
    assert(cBidi.moReroot(t, g.nodeIndex(3L)).isDefined)
    assert(cBidi.moReroot(t, g.nodeIndex(3L)).get.isMo)
  }

  test("edgeAllowed honors the LABEL filter") {
    val c = ctx(CtpEvalConfig(labels = Some(Set("a"))))
    assert(c.edgeAllowed(0) && c.edgeAllowed(2))
    assert(!c.edgeAllowed(1) && !c.edgeAllowed(3))
  }

  test("toFound maps dense indices to external ids and scores") {
    val c = ctx()
    val f = c.toFound(EdgeSet.of(0, 1, 2), Array(g.nodeIndex(0L), g.nodeIndex(3L)))
    assert(f.edgeIds.toSeq == Seq(0L, 1L, 2L))
    assert(f.seedIds.toSeq == Seq(0L, 3L))
    assert(f.score == -3.0)
  }

  test("rejects all-N seed sets") {
    assertThrows[IllegalArgumentException](
      new SearchContext(g, Seq(AllNodeSeeds, AllNodeSeeds), CtpEvalConfig()))
  }

  test("seeds missing from the graph are dropped silently") {
    val c = new SearchContext(g, seeds(Seq(0L, 777L), Seq(3L)), CtpEvalConfig())
    assert(c.seedSets(0).length == 1)
  }
}
