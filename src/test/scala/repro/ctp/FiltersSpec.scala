package repro.ctp

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import TestSupport._

/** CTP filters of §2/§4.8 pushed into the engines: UNI, LABEL, MAX,
  * SCORE/TOP-k, LIMIT, timeout — plus §4.9's N seed sets and balanced
  * queues. BruteForce honors UNI/LABEL/MAX too, and serves as oracle.
  */
class FiltersSpec extends AnyFunSuite {

  // Directed diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, plus a reverse edge 3 -> 0.
  private val diamond = labeledGraph(
    (0L, "a", 1L), (1L, "a", 3L), (0L, "b", 2L), (2L, "b", 3L), (3L, "c", 0L))

  test("UNI: only trees with a directed-root apex are returned") {
    val ss = seeds(Seq(1L), Seq(2L))
    val cfg = CtpEvalConfig(uni = true)
    val expected = bruteKeys(diamond, ss, cfg)
    // 1 and 2 are connected unidirectionally through 0 (apex) and through
    // 3 -> 0 chains; never via 3 as apex (no 3->1 / 3->2 paths of tree form).
    for (v <- GamVariant.all) {
      val out = GamEngine.run(diamond, ss, cfg, v)
      assert(out.resultKeys.subsetOf(expected), s"${v.name} UNI unsound")
      if (v == GamVariant.GAM || v == GamVariant.MoLESP)
        assert(out.resultKeys == expected, s"${v.name} UNI incomplete")
    }
    // UNI results are a subset of the bidirectional ones.
    val bidi = GamEngine.run(diamond, ss, CtpEvalConfig(), GamVariant.MoLESP).resultKeys
    assert(expected.subsetOf(bidi))
    assert(expected.size < bidi.size)
  }

  test("UNI on random directed graphs matches brute force (MoLESP, m=2)") {
    val rnd = new Random(11)
    for (trial <- 1 to 60) {
      val n = 3 + rnd.nextInt(4)
      val es = (0 until 2 + rnd.nextInt(7)).map { _ =>
        val a = rnd.nextInt(n).toLong
        var b = rnd.nextInt(n).toLong
        while (b == a) b = rnd.nextInt(n).toLong
        (a, b)
      }
      val g = graph(es: _*)
      val ss = Seq(NodeSeeds(Seq(0L)), NodeSeeds(Seq((n - 1).toLong)))
      val cfg = CtpEvalConfig(uni = true, tieSeed = trial.toLong)
      val out = GamEngine.run(g, ss, cfg, GamVariant.MoLESP)
      assert(out.resultKeys == bruteKeys(g, ss, cfg), s"trial $trial")
    }
  }

  test("LABEL restricts result edges to the allowed labels") {
    val ss = seeds(Seq(0L), Seq(3L))
    val cfg = CtpEvalConfig(labels = Some(Set("a")))
    val expected = bruteKeys(diamond, ss, cfg)
    assert(expected.size == 1) // only the 0-a->1-a->3 path
    val out = GamEngine.run(diamond, ss, cfg, GamVariant.MoLESP)
    assert(out.resultKeys == expected)
  }

  test("MAX bounds the tree size") {
    val g = graph((0L, 1L), (1L, 2L), (2L, 3L), (0L, 4L), (4L, 5L), (5L, 6L), (6L, 3L))
    val ss = seeds(Seq(0L), Seq(3L))
    val all = bruteKeys(g, ss)
    assert(all.size == 2) // a 3-edge and a 4-edge path
    val cfg = CtpEvalConfig(maxEdges = 3)
    val expected = bruteKeys(g, ss, cfg)
    assert(expected.size == 1)
    val out = GamEngine.run(g, ss, cfg, GamVariant.MoLESP)
    assert(out.resultKeys == expected)
    out.results.foreach(t => assert(t.size <= 3))
  }

  test("SCORE size / TOP 1 returns the smallest tree") {
    val g = graph((0L, 1L), (1L, 2L), (2L, 3L), (0L, 4L), (4L, 5L), (5L, 6L), (6L, 3L))
    val ss = seeds(Seq(0L), Seq(3L))
    val out = GamEngine.run(g, ss, CtpEvalConfig(topK = Some(1)), GamVariant.MoLESP)
    assert(out.results.size == 1)
    assert(out.results.head.size == 3)
  }

  test("LIMIT 1 stops after the first result") {
    val gen = repro.gen.GraphGen.chain(6)
    val g = gen.toInMemory
    val out = GamEngine.run(g, gen.seedSpecs, CtpEvalConfig(limit = 1), GamVariant.MoLESP)
    assert(out.results.size == 1)
    val full = GamEngine.run(g, gen.seedSpecs, CtpEvalConfig(), GamVariant.MoLESP)
    assert(full.results.size == 64)
    assert(out.stats.provenances < full.stats.provenances)
  }

  test("timeout stops the search and sets the flag") {
    val gen = repro.gen.GraphGen.chain(18) // 2^18 results: cannot finish in 30ms
    val g = gen.toInMemory
    def timesOut(name: String, run: CtpEvalConfig => SearchOutcome): Unit = {
      val out = run(CtpEvalConfig(timeoutMs = 30))
      assert(out.stats.timedOut, s"$name did not time out")
      assert(out.stats.elapsedMs < 10000, s"$name ran far past its budget")
    }
    timesOut("GAM", GamEngine.run(g, gen.seedSpecs, _, GamVariant.GAM))
    timesOut("BFT-AM", BftEngine.run(g, gen.seedSpecs, _, BftMerge.Aggressive))
  }

  test("N seed set (§4.9 i): exploration starts from the concrete set only") {
    val g = graph((0L, 1L), (1L, 2L))
    val ss = Seq(NodeSeeds(Seq(0L)), AllNodeSeeds)
    val expected = bruteKeys(g, ss)
    // node-0 alone, edge 0, and edges {0,1}: 3 results.
    assert(expected.size == 3)
    val out = GamEngine.run(g, ss, CtpEvalConfig(), GamVariant.MoLESP)
    assert(out.resultKeys == expected)
  }

  test("N seed set on a branching graph binds one leaf (Def. 2.8)") {
    // 1 - 0 - 2: a tree holding both edges has two leaves outside {0},
    // but N binds only one of them.
    val g = graph((0L, 1L), (0L, 2L))
    val ss = Seq(NodeSeeds(Seq(0L)), AllNodeSeeds)
    val expected = Set("|0,-1", "0|0,-1", "1|0,-1")
    assert(bruteKeys(g, ss) == expected)
    assert(GamEngine.run(g, ss, CtpEvalConfig(), GamVariant.MoLESP).resultKeys == expected)
  }

  test("N seed set respects MAX and LABEL") {
    val g = labeledGraph((0L, "a", 1L), (1L, "b", 2L), (2L, "a", 3L))
    val ss = Seq(NodeSeeds(Seq(0L)), AllNodeSeeds)
    val cfg = CtpEvalConfig(labels = Some(Set("a")), maxEdges = 1)
    val out = GamEngine.run(g, ss, cfg, GamVariant.MoLESP)
    assert(out.resultKeys == bruteKeys(g, ss, cfg))
  }

  test("balanced queues (§4.9 ii) preserve the result set") {
    val rnd = new Random(12)
    for (trial <- 1 to 30) {
      val n = 4 + rnd.nextInt(4)
      val es = (0 until 3 + rnd.nextInt(6)).map { _ =>
        val a = rnd.nextInt(n).toLong
        var b = rnd.nextInt(n).toLong
        while (b == a) b = rnd.nextInt(n).toLong
        (a, b)
      }
      val g = graph(es: _*)
      val ss = Seq(NodeSeeds((0L until (n / 2).toLong)), NodeSeeds(Seq((n - 1).toLong)))
      val a = GamEngine.run(g, ss, CtpEvalConfig(balancedQueues = true), GamVariant.MoLESP)
      val b = GamEngine.run(g, ss, CtpEvalConfig(balancedQueues = false), GamVariant.MoLESP)
      assert(a.resultKeys == bruteKeys(g, ss), s"trial $trial balanced")
      assert(a.resultKeys == b.resultKeys, s"trial $trial")
    }
  }

  test("score functions registry resolves both provided scores") {
    assert(ScoreFunction.registry.contains("size"))
    assert(ScoreFunction.registry.contains("labelDiversity"))
    val g = labeledGraph((0L, "a", 1L), (1L, "b", 2L))
    val out = GamEngine.run(g, seeds(Seq(0L), Seq(2L)),
      CtpEvalConfig(score = LabelDiversityScore), GamVariant.MoLESP)
    assert(out.results.head.score > 1.9) // two distinct labels
  }

  test("UNI disables invalid Mo re-roots but keeps valid ones") {
    // 0 -> 1 -> 2: with seeds {0},{2}, UNI result is the directed path
    // with apex 0; re-rooting at seed 2 would break the invariant.
    val g = labeledGraph((0L, "a", 1L), (1L, "a", 2L))
    val ss = seeds(Seq(0L), Seq(2L))
    val cfg = CtpEvalConfig(uni = true)
    val out = GamEngine.run(g, ss, cfg, GamVariant.MoLESP)
    assert(out.resultKeys == bruteKeys(g, ss, cfg))
    assert(out.results.size == 1)
  }
}
