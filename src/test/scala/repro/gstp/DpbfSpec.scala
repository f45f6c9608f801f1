package repro.gstp

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.ctp.{BruteForce, CtpEvalConfig, NodeSeeds}
import repro.ctp.TestSupport._

/** DPBF (the QGSTP stand-in) must return a minimum-size connecting tree
  * — cross-checked against the exhaustive enumerator's best result.
  */
class DpbfSpec extends AnyFunSuite {

  test("returns the optimal tree on a diamond") {
    val g = graph((0L, 1L), (1L, 2L), (0L, 3L), (3L, 4L), (4L, 2L))
    val ss = seeds(Seq(0L), Seq(2L))
    val t = Dpbf.findOne(g, ss, directed = false)
    assert(t.isDefined)
    assert(t.get.size == 2) // 0-1-2 beats 0-3-4-2
  }

  test("handles 3 seed sets with a Steiner node") {
    val g = graph((0L, 3L), (1L, 3L), (2L, 3L))
    val ss = seeds(Seq(0L), Seq(1L), Seq(2L))
    val t = Dpbf.findOne(g, ss, directed = false)
    assert(t.isDefined && t.get.size == 3)
  }

  test("returns None when seeds are disconnected") {
    val g = graph((0L, 1L), (2L, 3L))
    assert(Dpbf.findOne(g, seeds(Seq(0L), Seq(3L)), directed = false).isEmpty)
  }

  test("directed mode requires a root-to-seeds orientation") {
    // 0 -> 1 <- 2: undirected connects 0 and 2; directed needs an apex
    // reaching both — none exists.
    val g = graph((0L, 1L), (2L, 1L))
    val ss = seeds(Seq(0L), Seq(2L))
    assert(Dpbf.findOne(g, ss, directed = false).isDefined)
    assert(Dpbf.findOne(g, ss, directed = true).isEmpty)
    // 1 <- 0 -> 2: apex 0 reaches both seeds.
    val g2 = graph((0L, 1L), (0L, 2L))
    assert(Dpbf.findOne(g2, seeds(Seq(1L), Seq(2L)), directed = true).isDefined)
  }

  test("matches the optimum of brute force on random graphs (undirected)") {
    val rnd = new Random(21)
    for (trial <- 1 to 80) {
      val n = 3 + rnd.nextInt(5)
      val es = (0 until 2 + rnd.nextInt(8)).map { _ =>
        val a = rnd.nextInt(n).toLong
        var b = rnd.nextInt(n).toLong
        while (b == a) b = rnd.nextInt(n).toLong
        (a, b)
      }
      val g = graph(es: _*)
      val m = math.min(3, n)
      val ss = rnd.shuffle((0 until n).toList).take(m).map(s => NodeSeeds(Seq(s.toLong)))
      val brute = BruteForce.run(g, ss, CtpEvalConfig())
      val t = Dpbf.findOne(g, ss, directed = false)
      if (brute.results.isEmpty) assert(t.isEmpty, s"trial $trial: found phantom tree")
      else {
        assert(t.isDefined, s"trial $trial: missed existing tree")
        assert(t.get.size == brute.results.map(_.size).min,
          s"trial $trial: ${t.get.size} vs optimum ${brute.results.map(_.size).min}")
      }
    }
  }

  test("matches the optimum of UNI brute force on random graphs (directed)") {
    val rnd = new Random(22)
    for (trial <- 1 to 60) {
      val n = 3 + rnd.nextInt(5)
      val es = (0 until 2 + rnd.nextInt(8)).map { _ =>
        val a = rnd.nextInt(n).toLong
        var b = rnd.nextInt(n).toLong
        while (b == a) b = rnd.nextInt(n).toLong
        (a, b)
      }
      val g = graph(es: _*)
      val ss = rnd.shuffle((0 until n).toList).take(2).map(s => NodeSeeds(Seq(s.toLong)))
      val brute = BruteForce.run(g, ss, CtpEvalConfig(uni = true))
      val t = Dpbf.findOne(g, ss, directed = true)
      if (brute.results.isEmpty) assert(t.isEmpty, s"trial $trial: found phantom tree")
      else {
        assert(t.isDefined, s"trial $trial: missed existing tree")
        assert(t.get.size == brute.results.map(_.size).min, s"trial $trial")
      }
    }
  }

  test("an unbounded timeout never expires") {
    // Both seeds at the ends of a 3,000-node line: thousands of queue
    // pops before the goal, so the clock is read more than once.
    val n = 3000
    val g = graph((0 until n - 1).map(i => (i.toLong, i + 1L)): _*)
    val t = Dpbf.findOne(g, seeds(Seq(0L), Seq(n - 1L)), directed = false,
      timeoutMs = Long.MaxValue)
    assert(t.map(_.size).contains(n - 1))
  }

  test("respects maxEdges") {
    val g = graph((0L, 1L), (1L, 2L), (2L, 3L))
    val ss = seeds(Seq(0L), Seq(3L))
    assert(Dpbf.findOne(g, ss, directed = false, maxEdges = 2).isEmpty)
    assert(Dpbf.findOne(g, ss, directed = false, maxEdges = 3).isDefined)
  }

  test("rejects seed-set counts whose state keys would alias") {
    // 4 nodes take 3 bits: 60 seed sets fit in a 63-bit key, 61 do not.
    val g = graph((0L, 1L), (1L, 2L), (2L, 3L))
    val t = Dpbf.findOne(g, Seq.fill(60)(NodeSeeds(Seq(0L))), directed = false)
    assert(t.exists(_.size == 0))
    val e = intercept[IllegalArgumentException] {
      Dpbf.findOne(g, Seq.fill(61)(NodeSeeds(Seq(0L))), directed = false)
    }
    assert(e.getMessage.contains("exceed 63 bits"))
  }
}
