package repro.ctp

import org.scalatest.funsuite.AnyFunSuite
import TestSupport._

/** Correctness of every CTP algorithm on small hand-built graphs,
  * against the exhaustive BruteForce oracle.
  */
class EngineSmallGraphSpec extends AnyFunSuite {

  private val allAlgos: Seq[(String, (repro.core.InMemoryGraph, Seq[SeedSpec], CtpEvalConfig) => SearchOutcome)] =
    Seq(
      "BFT"    -> ((g, s, c) => BftEngine.run(g, s, c, BftMerge.None)),
      "BFT-M"  -> ((g, s, c) => BftEngine.run(g, s, c, BftMerge.Single)),
      "BFT-AM" -> ((g, s, c) => BftEngine.run(g, s, c, BftMerge.Aggressive)),
      "GAM"    -> ((g, s, c) => GamEngine.run(g, s, c, GamVariant.GAM)),
      "ESP"    -> ((g, s, c) => GamEngine.run(g, s, c, GamVariant.ESP)),
      "MoESP"  -> ((g, s, c) => GamEngine.run(g, s, c, GamVariant.MoESP)),
      "LESP"   -> ((g, s, c) => GamEngine.run(g, s, c, GamVariant.LESP)),
      "MoLESP" -> ((g, s, c) => GamEngine.run(g, s, c, GamVariant.MoLESP)),
    )

  private val completeAlgos = Set("BFT", "BFT-M", "BFT-AM", "GAM")

  /** Runs every algorithm over several execution orders; asserts
    * soundness for all and completeness for the always-complete ones
    * (plus any extra algorithms the caller claims complete here).
    */
  private def checkAll(g: repro.core.InMemoryGraph, ss: Seq[SeedSpec],
                       alsoComplete: Set[String],
                       orders: Seq[Long] = Seq(0L, 1L, 7L, 13L)): Unit = {
    val expected = bruteKeys(g, ss)
    for ((name, run) <- allAlgos; seed <- orders) {
      val out = run(g, ss, CtpEvalConfig(tieSeed = seed))
      val keys = out.resultKeys
      assert(keys.subsetOf(expected),
        s"$name (seed $seed) reported a non-result: ${keys.diff(expected)}")
      if (completeAlgos.contains(name) || alsoComplete.contains(name))
        assert(keys == expected,
          s"$name (seed $seed) missed: ${expected.diff(keys)}")
    }
  }

  test("single edge between two seeds (m=2)") {
    val g = graph((0L, 1L))
    checkAll(g, seeds(Seq(0L), Seq(1L)),
      alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
  }

  test("two parallel edges: two distinct 1-edge results") {
    val g = graph((0L, 1L), (0L, 1L))
    val expected = bruteKeys(g, seeds(Seq(0L), Seq(1L)))
    assert(expected.size == 2)
    checkAll(g, seeds(Seq(0L), Seq(1L)),
      alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
  }

  test("same node in both seed sets: single-node result") {
    val g = graph((0L, 1L), (1L, 2L))
    val out = GamEngine.run(g, seeds(Seq(1L), Seq(1L, 2L)), CtpEvalConfig(), GamVariant.MoLESP)
    // Node 1 satisfies both sets at once; node 2 pairs with node 1.
    val expected = bruteKeys(g, seeds(Seq(1L), Seq(1L, 2L)))
    assert(out.resultKeys == expected)
    assert(expected.exists(_.startsWith("|")), "single-node result expected")
  }

  test("triangle with 3 seeds: three 2-edge results (m=3, MoLESP complete)") {
    val g = graph((0L, 1L), (1L, 2L), (2L, 0L))
    val ss = seeds(Seq(0L), Seq(1L), Seq(2L))
    assert(bruteKeys(g, ss).size == 3)
    checkAll(g, ss, alsoComplete = Set("MoLESP"))
  }

  test("square with opposite seeds: two paths (Property 3, ESP complete for m=2)") {
    val g = graph((0L, 1L), (1L, 2L), (2L, 3L), (3L, 0L))
    val ss = seeds(Seq(0L), Seq(2L))
    assert(bruteKeys(g, ss).size == 2)
    checkAll(g, ss, alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
  }

  test("chain graph of Fig. 2 has 2^n results") {
    for (n <- 1 to 4) {
      val gen = repro.gen.GraphGen.chain(n)
      val g = gen.toInMemory
      val ss = gen.seedSpecs
      val expected = bruteKeys(g, ss)
      assert(expected.size == (1 << n), s"chain($n)")
      checkAll(g, ss, alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
    }
  }

  test("edge directions are ignored (requirement R3)") {
    // n2 <- n1 -> n3: seeds n2, n3 connect only through reversed edges.
    val g = labeledGraph((1L, "a", 2L), (1L, "b", 3L))
    val ss = seeds(Seq(2L), Seq(3L))
    val expected = bruteKeys(g, ss)
    assert(expected.size == 1)
    checkAll(g, ss, alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
  }

  test("t_beta-style result spans mixed edge directions") {
    // Paper §2: a tree result is valid regardless of edge orientation.
    val g = labeledGraph((2L, "e1", 7L), (3L, "e2", 7L), (9L, "e3", 8L), (8L, "e4", 3L))
    val ss = seeds(Seq(2L), Seq(3L), Seq(9L))
    val expected = bruteKeys(g, ss)
    assert(expected.size == 1)
    assert(expected.head.split('|')(0).split(',').length == 4)
    checkAll(g, ss, alsoComplete = Set("MoLESP"))
  }

  test("seed with two branches: result minimality (no junk leaves)") {
    // 0(seed) - 1 - 2(seed), plus dead-end 1 - 3. The dead end must not
    // appear in any result.
    val g = graph((0L, 1L), (1L, 2L), (1L, 3L))
    val ss = seeds(Seq(0L), Seq(2L))
    val expected = bruteKeys(g, ss)
    assert(expected.size == 1)
    assert(!expected.head.contains("2,")) // edge id 2 = (1,3) junk edge
    checkAll(g, ss, alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
  }

  test("two seeds from same set cannot both appear (Def. 2.8 (ii))") {
    // 0(S1) - 1(S1) - 2(S2): the path through node 1 (also in S1) is not
    // a valid result for (0, 2); but (1,2) edge alone is.
    val g = graph((0L, 1L), (1L, 2L))
    val ss = seeds(Seq(0L, 1L), Seq(2L))
    val expected = bruteKeys(g, ss)
    // Only result: the single edge 1-2 (path 0-1-2 contains two S1 nodes).
    assert(expected.size == 1)
    checkAll(g, ss, alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
  }

  test("disconnected seeds yield no results") {
    val g = graph((0L, 1L), (2L, 3L))
    checkAll(g, seeds(Seq(0L), Seq(3L)),
      alsoComplete = Set("ESP", "MoESP", "LESP", "MoLESP"))
    assert(bruteKeys(g, seeds(Seq(0L), Seq(3L))).isEmpty)
  }

  test("m=3 on a 2x3 grid: MoLESP complete across orders") {
    // 0-1-2 / 3-4-5 grid with verticals.
    val g = graph((0L, 1L), (1L, 2L), (3L, 4L), (4L, 5L), (0L, 3L), (1L, 4L), (2L, 5L))
    val ss = seeds(Seq(0L), Seq(2L), Seq(4L))
    checkAll(g, ss, alsoComplete = Set("MoLESP"), orders = (0L to 10L))
  }

  test("GAM results are minimal by construction (Property 2)") {
    val g = graph((0L, 1L), (1L, 2L), (1L, 3L), (3L, 4L), (2L, 4L))
    val ss = seeds(Seq(0L), Seq(4L))
    val out = GamEngine.run(g, ss, CtpEvalConfig(), GamVariant.GAM)
    val expected = bruteKeys(g, ss)
    assert(out.resultKeys == expected)
    // Every reported tree's leaves are seeds: implied by equality with
    // brute force, which enforces minimality structurally.
  }

  test("stats are populated") {
    val g = graph((0L, 1L), (1L, 2L))
    val out = GamEngine.run(g, seeds(Seq(0L), Seq(2L)), CtpEvalConfig(), GamVariant.MoLESP)
    assert(out.stats.provenances > 0)
    assert(out.stats.kept > 0)
    assert(out.stats.grows > 0)
    assert(!out.stats.timedOut)
    // Fractional milliseconds: a search of a few microseconds does not read 0.
    assert(out.stats.elapsedMs > 0.0)
    assert(BruteForce.run(g, seeds(Seq(0L), Seq(2L))).stats.elapsedMs > 0.0)
  }
}
