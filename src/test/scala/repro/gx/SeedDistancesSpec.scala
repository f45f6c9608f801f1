package repro.gx

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{GEdge, InMemoryGraph}
import repro.ctp.{CtpEvalConfig, GamEngine, GamVariant, NodeSeeds}

/** Bounded seed-distance BFS vs a reference BFS, and soundness of the
  * feasibility pruning (pruned search = unpruned search results).
  */
class SeedDistancesSpec extends AnyFunSuite {

  private def mkGraph(edges: Seq[(Long, Long)]): InMemoryGraph = {
    val es = edges.zipWithIndex.map { case ((a, b), i) => GEdge(i.toLong, a, "r", b) }
    val ns = es.flatMap(e => Seq(e.src, e.dst)).distinct
    InMemoryGraph.fromSeqs(ns, es)
  }

  private def randomEdges(rnd: Random, n: Int, count: Int): Seq[(Long, Long)] =
    (0 until count).map(_ => (rnd.nextInt(n).toLong, rnd.nextInt(n).toLong))
      .filter(e => e._1 != e._2)

  /** Reference undirected BFS: external id -> distance, within `maxDepth`. */
  private def refBfs(g: InMemoryGraph, sources: Seq[Long], maxDepth: Int): Map[Long, Int] = {
    val dist = collection.mutable.HashMap.empty[Int, Int]
    var frontier = sources.map(g.nodeIndex).filter(_ >= 0)
    frontier.foreach(dist(_) = 0)
    var d = 0
    while (frontier.nonEmpty && d < maxDepth) {
      d += 1
      frontier = frontier.flatMap { n =>
        g.adj(n).flatMap { e =>
          val o = g.other(e, n)
          if (!dist.contains(o)) { dist(o) = d; Some(o) } else None
        }
      }.distinct
    }
    dist.map { case (k, v) => g.nodeIds(k) -> v }.toMap
  }

  private def assertMatchesRef(g: InMemoryGraph, sources: Seq[Long], maxDepth: Int,
                               clue: String): Unit = {
    val d = SeedDistances.distances(g, sources, maxDepth)
    val ref = refBfs(g, sources, maxDepth)
    (0 until g.numNodes).foreach { i =>
      val id = g.nodeIds(i)
      assert(d(i) == ref.getOrElse(id, SeedDistances.Unreachable), s"$clue node $id")
    }
  }

  test("undirected distances match reference BFS on a path") {
    val g = mkGraph(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L)))
    assertMatchesRef(g, Seq(0L), 10, "set 0")
    assertMatchesRef(g, Seq(4L), 10, "set 1")
    assert(SeedDistances.distances(g, Seq(0L), 10).toSeq == Seq(0, 1, 2, 3, 4))
    // The horizon cuts the BFS: nodes beyond it stay unreachable.
    val cut = SeedDistances.distances(g, Seq(0L), 2)
    assert(cut(g.nodeIndex(2L)) == 2 && cut(g.nodeIndex(3L)) == SeedDistances.Unreachable)
  }

  test("edge orientation is ignored (R3)") {
    val g = mkGraph(Seq((0L, 1L), (2L, 1L)))
    val d = SeedDistances.distances(g, Seq(0L), 5)
    assert(d(g.nodeIndex(1L)) == 1)
    assert(d(g.nodeIndex(2L)) == 2) // 2 -> 1 is walked backwards
  }

  test("multi-node seed sets take the min distance") {
    val g = mkGraph(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L), (4L, 5L)))
    assertMatchesRef(g, Seq(0L, 5L), 10, "set {0,5}")
    assert(SeedDistances.distances(g, Seq(0L, 5L), 10).max == 2)
  }

  test("random graphs: BFS distances equal reference BFS") {
    val rnd = new Random(31)
    for (trial <- 1 to 5) {
      val n = 12
      val g = mkGraph(randomEdges(rnd, n, 20))
      Seq(Seq(0L), Seq((n - 1).toLong, 1L)).zipWithIndex.foreach { case (srcs, i) =>
        assertMatchesRef(g, srcs, 6, s"trial $trial set $i")
      }
    }
  }

  test("seed ids absent from the graph are ignored") {
    val g = mkGraph(Seq((0L, 1L), (1L, 2L)))
    assert(SeedDistances.distances(g, Seq(99L, 2L), 5).toSeq ==
      SeedDistances.distances(g, Seq(2L), 5).toSeq)
    assert(SeedDistances.distances(g, Seq(99L), 5).forall(_ == SeedDistances.Unreachable))
    // A set with no node in the graph connects to nothing.
    assert(SeedDistances.prune(g, Seq(Seq(0L), Seq(99L)), 3).numNodes == 0)
  }

  test("self-loops neither shorten distances nor stop the BFS") {
    val g = mkGraph(Seq((0L, 0L), (0L, 1L), (1L, 1L), (1L, 2L)))
    assertMatchesRef(g, Seq(0L), 5, "from 0")
    assert(SeedDistances.distances(g, Seq(0L), 5)(g.nodeIndex(2L)) == 2)
    val pruned = SeedDistances.prune(g, Seq(Seq(0L), Seq(1L)), 1)
    assert(pruned.nodeIds.toSet == Set(0L, 1L))
    assert(pruned.edgeIds.toSet == Set(0L, 1L, 2L)) // both loops and 0-1 stay
  }

  test("feasibleNodeFilter keeps exactly the nodes within range of every set") {
    val g = mkGraph(Seq((0L, 1L), (1L, 2L), (2L, 3L), (3L, 4L), (2L, 5L)))
    val sets = Seq(Seq(0L), Seq(4L))
    for (maxEdges <- 0 to 5) {
      val refs = sets.map(refBfs(g, _, maxEdges))
      val keep = SeedDistances.feasibleNodeFilter(g, sets, maxEdges)
      (0 until g.numNodes).foreach { i =>
        assert(keep(i) == refs.forall(_.contains(g.nodeIds(i))), s"MAX $maxEdges node ${g.nodeIds(i)}")
      }
    }
    // The seeds are 4 hops apart; node 5 is 3 hops from both.
    assert(SeedDistances.feasibleNodeFilter(g, sets, 4).forall(identity))
    val keep3 = SeedDistances.feasibleNodeFilter(g, sets, 3)
    assert(keep3(g.nodeIndex(5L)) && !keep3(g.nodeIndex(0L)))
    assert(SeedDistances.feasibleNodeFilter(g, sets, 2).count(identity) == 1) // node 2
  }

  test("prune returns the same instance when nothing is pruned") {
    val g = mkGraph(Seq((0L, 1L), (1L, 2L), (2L, 3L)))
    assert(SeedDistances.prune(g, Seq(Seq(0L), Seq(3L)), 3) eq g)
    assert(SeedDistances.prune(g, Seq.empty, 1) eq g)
    val cut = SeedDistances.prune(g, Seq(Seq(0L), Seq(1L)), 1)
    assert(!(cut eq g))
    assert(cut.nodeIds.toSet == Set(0L, 1L) && cut.edgeIds.toSeq == Seq(0L))
  }

  test("pruning preserves MoLESP results under MAX (soundness end-to-end)") {
    // 60 random graphs, MAX 1..4, m = 2..3; GAM is checked alongside.
    val rnd = new Random(33)
    var prunedSome = 0
    var withResults = 0
    for (trial <- 1 to 60) {
      val n = 8 + rnd.nextInt(5)
      val g = mkGraph(randomEdges(rnd, n, n + rnd.nextInt(n)))
      val ids = g.nodeIds.toSeq
      val m = 2 + rnd.nextInt(2)
      val sets = Seq.fill(m)(Seq.fill(1 + rnd.nextInt(2))(ids(rnd.nextInt(ids.size))).distinct)
      val maxEdges = 1 + rnd.nextInt(4)
      val cfg = CtpEvalConfig(maxEdges = maxEdges)
      val pruned = SeedDistances.prune(g, sets, maxEdges)
      if (pruned.numNodes < g.numNodes) prunedSome += 1
      for (v <- Seq(GamVariant.MoLESP, GamVariant.GAM)) {
        val full = GamEngine.run(g, sets.map(NodeSeeds(_)), cfg, v)
        val fast = GamEngine.run(pruned, sets.map(NodeSeeds(_)), cfg, v)
        assert(fast.resultKeys == full.resultKeys,
          s"trial $trial ${v.name} MAX $maxEdges sets $sets")
        if (full.results.nonEmpty) withResults += 1
      }
    }
    // The property is not vacuous: most graphs lose nodes, many keep results.
    assert(prunedSome >= 30, s"only $prunedSome of 60 graphs were pruned")
    assert(withResults >= 30, s"only $withResults of 120 searches found results")
  }
}
