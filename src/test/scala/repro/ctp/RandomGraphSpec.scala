package repro.ctp

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.InMemoryGraph
import TestSupport._

/** Randomized cross-validation of every algorithm against BruteForce,
  * over random small multigraphs, random seed sets, and random
  * execution orders — the paper's completeness properties 3, 5, 8 as
  * statistical facts over hundreds of instances.
  */
class RandomGraphSpec extends AnyFunSuite {

  private def randomGraph(rnd: Random): (InMemoryGraph, Int) = {
    val n = 3 + rnd.nextInt(5)          // 3..7 nodes
    val e = 2 + rnd.nextInt(8)          // 2..9 edges
    val edges = (0 until e).map { _ =>
      val a = rnd.nextInt(n).toLong
      var b = rnd.nextInt(n).toLong
      while (b == a) b = rnd.nextInt(n).toLong
      (a, b)
    }
    (graph(edges: _*), n)
  }

  private def randomSeeds(rnd: Random, n: Int, m: Int): Seq[SeedSpec] = {
    val picked = rnd.shuffle((0 until n).toList).take(m)
    picked.map(s => NodeSeeds(Seq(s.toLong) ++
      (if (rnd.nextBoolean()) Seq(rnd.nextInt(n).toLong) else Seq.empty)))
  }

  test("m=2: ESP (and everything above it) is complete — Property 3") {
    val rnd = new Random(1)
    for (trial <- 1 to 120) {
      val (g, n) = randomGraph(rnd)
      val ss = randomSeeds(rnd, n, 2)
      val expected = bruteKeys(g, ss)
      for (v <- Seq(GamVariant.ESP, GamVariant.MoESP, GamVariant.LESP, GamVariant.MoLESP)) {
        val out = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = trial.toLong), v)
        assert(out.resultKeys == expected,
          s"trial $trial ${v.name}: got ${out.resultKeys.size}, want ${expected.size}")
      }
    }
  }

  test("m=3: MoLESP is complete — Property 8; all variants sound") {
    val rnd = new Random(2)
    for (trial <- 1 to 120) {
      val (g, n) = randomGraph(rnd)
      val ss = randomSeeds(rnd, n, math.min(3, n))
      val expected = bruteKeys(g, ss)
      for (v <- GamVariant.all) {
        val out = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = trial.toLong), v)
        assert(out.resultKeys.subsetOf(expected), s"trial $trial ${v.name} unsound")
        if (v == GamVariant.GAM || v == GamVariant.MoLESP)
          assert(out.resultKeys == expected,
            s"trial $trial ${v.name}: missed ${expected.diff(out.resultKeys).size}")
      }
    }
  }

  test("m<=3 under MAX 1..4, with and without UNI: GAM and MoLESP match brute force") {
    val rnd = new Random(7)
    var binding = 0
    for (trial <- 1 to 150) {
      val (g, n) = randomGraph(rnd)
      val ss = randomSeeds(rnd, n, math.min(2 + rnd.nextInt(2), n))
      for (uni <- Seq(false, true)) {
        val unbounded = bruteKeys(g, ss, CtpEvalConfig(uni = uni))
        for (maxEdges <- 1 to 4) {
          val cfg = CtpEvalConfig(uni = uni, maxEdges = maxEdges, tieSeed = trial.toLong)
          val expected = bruteKeys(g, ss, cfg)
          if (expected != unbounded) binding += 1
          for (v <- Seq(GamVariant.GAM, GamVariant.MoLESP))
            assert(GamEngine.run(g, ss, cfg, v).resultKeys == expected,
              s"trial $trial ${v.name} uni=$uni MAX $maxEdges")
        }
      }
    }
    info(s"$binding of 1200 instances have MAX binding")
    assert(binding >= 30, "too few instances where MAX removes a result")
  }

  test("m=3: the BFT family is complete and matches brute force") {
    val rnd = new Random(3)
    for (trial <- 1 to 60) {
      val (g, n) = randomGraph(rnd)
      val ss = randomSeeds(rnd, n, math.min(3, n))
      val expected = bruteKeys(g, ss)
      for (mm <- Seq(BftMerge.None, BftMerge.Single, BftMerge.Aggressive)) {
        val out = BftEngine.run(g, ss, CtpEvalConfig(), mm)
        assert(out.resultKeys == expected, s"trial $trial $mm")
      }
    }
  }

  test("m=4: MoESP finds every path result — Property 5") {
    val rnd = new Random(4)
    for (trial <- 1 to 80) {
      val (g, n) = randomGraph(rnd)
      val m = math.min(4, n)
      val ss = randomSeeds(rnd, n, m)
      val expected = bruteKeys(g, ss)
      // Path results: trees where no node has 3+ incident tree edges.
      val pathResults = BruteForce.run(g, ss).results.filter { t =>
        val cnt = collection.mutable.HashMap.empty[Int, Int]
        t.denseEdges.foreach { e =>
          cnt(g.esrc(e)) = cnt.getOrElse(g.esrc(e), 0) + 1
          cnt(g.edst(e)) = cnt.getOrElse(g.edst(e), 0) + 1
        }
        cnt.values.forall(_ <= 2)
      }.map(_.treeKey).toSet
      for (seed <- Seq(0L, trial.toLong)) {
        val out = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = seed), GamVariant.MoESP)
        assert(out.resultKeys.subsetOf(expected), s"trial $trial MoESP unsound")
        assert(pathResults.subsetOf(out.resultKeys),
          s"trial $trial MoESP missed path results: ${pathResults.diff(out.resultKeys)}")
      }
    }
  }

  test("m=4,5: every variant stays sound; GAM complete; pruning variants do miss results") {
    val rnd = new Random(5)
    val misses = collection.mutable.HashMap.empty[String, Int].withDefaultValue(0)
    for (trial <- 1 to 60) {
      val (g, n) = randomGraph(rnd)
      val m = math.min(2 + rnd.nextInt(4), n)
      val ss = randomSeeds(rnd, n, m)
      val expected = bruteKeys(g, ss)
      for (v <- GamVariant.all) {
        val out = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = trial.toLong), v)
        assert(out.resultKeys.subsetOf(expected), s"trial $trial ${v.name} unsound")
        if (out.resultKeys != expected) misses(v.name) += 1
        if (v == GamVariant.GAM) assert(out.resultKeys == expected, s"trial $trial GAM")
      }
    }
    info(s"misses per variant over 60 trials: ${misses.toSeq.sortBy(_._1)}")
    // ESP's incompleteness (§4.4) must actually show up in the wild.
    assert(misses("ESP") > 0, "expected ESP to miss at least one result")
  }

  test("MoLESP results superset of MoESP and LESP results (§4.7)") {
    val rnd = new Random(6)
    for (trial <- 1 to 60) {
      val (g, n) = randomGraph(rnd)
      val ss = randomSeeds(rnd, n, math.min(4, n))
      val seed = trial.toLong
      val molesp = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = seed), GamVariant.MoLESP).resultKeys
      val moesp = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = seed), GamVariant.MoESP).resultKeys
      val lesp = GamEngine.run(g, ss, CtpEvalConfig(tieSeed = seed), GamVariant.LESP).resultKeys
      assert(molesp.size >= moesp.size && molesp.size >= lesp.size,
        s"trial $trial: MoLESP found fewer results than a sub-variant")
    }
  }
}
