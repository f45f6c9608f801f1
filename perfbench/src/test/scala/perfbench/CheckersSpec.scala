package perfbench

import scala.util.Random
import org.apache.spark.sql.Row
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GEdge, GNode, InMemoryGraph}
import repro.ctp._

/** The benchmark's checks: the references agree with the program's
  * brute-force oracle on small graphs, accept right answers, and reject
  * an answer with one row dropped or one tree edge swapped.
  */
final class CheckersSpec extends AnyFunSuite {

  private def randomGraph(rnd: Random, n: Int, e: Int): (Vector[GNode], Vector[GEdge]) = {
    val nodes = (0 until n).map(i => GNode(i, s"e$i")).toVector
    val edges = (0 until e).map { i =>
      val a = rnd.nextInt(n); var b = rnd.nextInt(n)
      while (b == a) b = rnd.nextInt(n)
      GEdge(i, a, s"p${rnd.nextInt(3)}", b)
    }.toVector
    (nodes, edges)
  }

  private def brute(nodes: Vector[GNode], edges: Vector[GEdge], seeds: Seq[SeedSpec],
                    labels: Set[String], max: Int): Vector[FoundTree] =
    BruteForce.run(InMemoryGraph.fromSeqs(nodes.map(_.id), edges), seeds,
      CtpEvalConfig(uni = true, labels = Some(labels), maxEdges = max)).results

  test("two-member UNI paths equal BruteForce's answers") {
    val rnd = new Random(3)
    for (_ <- 1 to 60) {
      val (nodes, edges) = randomGraph(rnd, 5 + rnd.nextInt(4), 6 + rnd.nextInt(10))
      val x = Seq.fill(2)(rnd.nextInt(nodes.size).toLong).toSet
      val y = Seq.fill(2)(rnd.nextInt(nodes.size).toLong).toSet
      val labels = Set("p0", "p1")
      val want = brute(nodes, edges, Seq(NodeSeeds(x.toSeq), NodeSeeds(y.toSeq)), labels, 3)
        .map(t => (t.seedIds(0), t.seedIds(1), t.edgeIds.mkString(","))).toSet
      assert(RefGraph.uniPaths(RefGraph(nodes, edges), x, Some(y), labels, 3) == want)
    }
  }

  test("all-nodes member: the paths with one end at the seed are BruteForce's path answers") {
    val rnd = new Random(5)
    for (_ <- 1 to 60) {
      val (nodes, edges) = randomGraph(rnd, 5 + rnd.nextInt(4), 6 + rnd.nextInt(10))
      val s = rnd.nextInt(nodes.size).toLong
      val labels = Set("p0", "p1")
      // BruteForce also accepts trees with more leaves than members; a
      // minimal tree connecting two nodes is a path with them as its ends.
      val want = brute(nodes, edges, Seq(NodeSeeds(Seq(s)), AllNodeSeeds), labels, 3).filter { t =>
        val deg = t.edgeIds.toSeq.flatMap(e => Seq(edges(e.toInt).src, edges(e.toInt).dst))
          .groupBy(identity).map { case (v, o) => v -> o.size }
        t.edgeIds.isEmpty || (deg.values.count(_ == 1) == 2 && deg.get(s).contains(1))
      }.map(_.edgeIds.mkString(",")).toSet
      val got = RefGraph.uniPaths(RefGraph(nodes, edges), Set(s), None, labels, 3).map(_._3)
      assert(got == want)
    }
  }

  test("row comparison rejects a dropped row") {
    val rows = Set(Seq[Any](1L, 2L, "3,4"), Seq[Any](1L, 5L, "6"))
    assert(EqlRun.compare(rows, rows).isEmpty)
    assert(EqlRun.compare(rows - rows.head, rows).isDefined)
  }

  private def asRows(rows: Set[Seq[Any]]): Array[Row] = rows.toArray.map(Row.fromSeq)

  /** Replaces the first edge of a tree by an edge of the graph not in it. */
  private def swapEdge(tree: Seq[Long], numEdges: Int): Seq[Long] =
    (0L until numEdges).find(e => !tree.contains(e)).get +: tree.tail

  test("eql-kg: each query's check accepts the reference and rejects a dropped row") {
    val w = new EqlKg(seed = 1, localDir = "unused", traced = false)
    val ops = (0 until 4).flatMap(r => w.round(r).get).map(_.asInstanceOf[EqlOp])
    ops.foreach { op =>
      assert(op.check(asRows(op.expected)).isEmpty, op.label)
      if (op.expected.nonEmpty)
        assert(op.check(asRows(op.expected - op.expected.head)).isDefined, op.label)
    }
    Seq("J1", "J2", "J3").foreach(q => assert(ops.exists(o => o.label.startsWith(q) && o.expected.nonEmpty), q))
  }

  test("eql-kg: J3's known failure is only the climb-only subset of the reference") {
    val w = new EqlKg(seed = 1, localDir = "unused", traced = false)
    val j3 = w.round(0).get.map(_.asInstanceOf[EqlOp]).find(_.label.startsWith("J3")).get
    val faulty = j3.faulty.get
    assert(faulty.nonEmpty && faulty.subsetOf(j3.expected) && faulty != j3.expected)
    assert(j3.check(asRows(faulty)).isDefined) // still counted as failed
    assert(j3.knownFault(asRows(faulty)))
    val others = Seq(
      Set.empty[Seq[Any]],                                  // no rows
      faulty - faulty.head,                                 // a smaller subset
      faulty + (j3.expected -- faulty).head,                // a larger subset
      faulty + Seq[Any]("not,a,tree"),                      // a row outside the reference
      j3.expected - j3.expected.head)
    others.foreach(o => assert(!j3.knownFault(asRows(o)) && j3.check(asRows(o)).isDefined))
  }

  test("Harness: a known failure counts as failed, any other wrong answer as incorrect") {
    def outcome(answer: String) = {
      val w = new Workload {
        val warmupRounds = 0
        def setUp(): Unit = ()
        def round(r: Int): Option[Seq[Op]] = if (r > 0) None else Some(Seq(new Op {
          val label = "probe"
          def run(): AnyRef = answer
          def runTraced(t: Trace): AnyRef = answer
          def check(out: AnyRef): Option[String] = if (out == "right") None else Some("wrong")
          override def knownFault(out: AnyRef): Boolean = out == "known"
        }))
      }
      val o = Harness.run(w, Harness.epochNanos(), seconds = 0.0, traced = false)
      (o.correct, o.attempted, o.failed)
    }
    assert(outcome("right") == ((true, 1, 0)))
    assert(outcome("known") == ((true, 1, 1)))
    assert(outcome("other") == ((false, 1, 1)))
  }

  test("eql-cdf: one row per link at m=2; tree checker and GAM comparison at m=3") {
    val w = new EqlCdf(seed = 1, localDir = "unused", traced = false)
    val ops = w.round(0).get.map(_.asInstanceOf[EqlOp])
    ops.foreach { op =>
      assert(op.check(asRows(op.expected)).isEmpty, op.label)
      assert(op.check(asRows(op.expected - op.expected.head)).isDefined, op.label)
      if (op.label.startsWith("CDF m=2")) assert(op.expected.size == 4000, op.label)
      else {
        val Seq(tl, tree) = op.expected.head
        val swapped = swapEdge(TreeCheck.parse(tree.asInstanceOf[String]), 36000).sorted.mkString(",")
        val bad = op.expected - op.expected.head + Seq[Any](tl, swapped)
        assert(op.check(asRows(bad)).exists(_.contains("tree")), op.label)
      }
    }
  }

  test("ctp-synthetic: the whole edge set passes, a swapped edge or a missing answer fails") {
    val w = new CtpSynthetic
    w.setUp()
    val ops = w.round(0).get.filter(_.label.startsWith("Line m=10,nL=4")).take(2)
    ops.foreach { op =>
      val out = op.run().asInstanceOf[SearchOutcome]
      assert(op.check(out).isEmpty, op.label)
      val t = out.results.head
      val bad = t.copy(edgeIds = (t.edgeIds.tail :+ 1000L).sorted)
      assert(op.check(out.copy(results = Vector(bad))).isDefined, op.label)
      assert(op.check(out.copy(results = Vector.empty)).isDefined, op.label)
    }
  }

  test("ctp-kg-limit: every algorithm's tree passes, a swapped edge fails") {
    val w = new CtpKgLimit
    w.setUp()
    w.round(0).get.take(6).foreach { op =>
      val out = op.run()
      assert(op.check(out).isEmpty, op.label)
      val bad: AnyRef = out match {
        case o: SearchOutcome =>
          val t = o.results.head
          o.copy(results = Vector(t.copy(edgeIds = swapEdge(t.edgeIds.toSeq, 70000).toArray)))
        case Some(t: FoundTree) => Some(t.copy(edgeIds = swapEdge(t.edgeIds.toSeq, 70000).toArray))
      }
      assert(op.check(bad).isDefined, op.label)
    }
  }

  test("TreeCheck: a valid UNI tree passes; a reversed edge loses the apex") {
    val nodes = (0 until 4).map(i => GNode(i, s"e$i")).toVector
    val edges = Vector(GEdge(0, 0, "p0", 1), GEdge(1, 0, "p0", 2), GEdge(2, 2, "p0", 3),
      GEdge(3, 3, "p0", 0), GEdge(4, 2, "p0", 1))
    val g = RefGraph(nodes, edges)
    assert(TreeCheck(g, Seq(0L, 1L), Seq(Set(1L), Set(2L)), uni = true) == Right(Seq(1L, 2L)))
    assert(TreeCheck(g, Seq(0L, 1L, 2L), Seq(Set(1L), Set(2L)), uni = true).isLeft) // leaf 3 is no seed
    assert(TreeCheck(g, Seq(0L, 3L), Seq(Set(1L), Set(3L)), uni = true).isRight)
    assert(TreeCheck(g, Seq(2L, 3L), Seq(Set(2L), Set(0L)), uni = true).isRight)
    assert(TreeCheck(g, Seq(0L, 1L, 2L, 3L), Seq(Set(1L), Set(3L)), uni = false).isLeft) // cycle
    assert(TreeCheck(g, Seq(0L, 4L), Seq(Set(0L), Set(2L)), uni = false).isRight)
    assert(TreeCheck(g, Seq(0L, 4L), Seq(Set(0L), Set(2L)), uni = true).isLeft) // 0 -> 1 <- 2
  }
}
