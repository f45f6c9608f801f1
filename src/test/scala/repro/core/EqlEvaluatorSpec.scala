package repro.core

import repro.SparkSpec
import repro.ctp.{BruteForce, CtpEvalConfig, NodeSeeds}
import repro.gen.GraphGen

/** End-to-end EQL evaluation (§3 steps A/B/C) on the sample graph and on
  * CDF benchmark graphs, validated against BruteForce + manual joins.
  */
class EqlEvaluatorSpec extends SparkSpec {

  private lazy val g = SampleGraph.pg(spark)
  private lazy val mem = SampleGraph.inMemory

  test("paper Q1: entrepreneurs/politician connections, joined with BGPs") {
    val q = EqlParser.parse(
      """(x, y, z, w) :- (type(x)="entrepreneur", "citizenOf", "USA"),
        |                (type(y)="entrepreneur", "citizenOf", "France"),
        |                (type(z)="politician", "citizenOf", "France"),
        |                (x, y, z, *w)""".stripMargin)
    val res = EqlEvaluator.evaluate(spark, g, q)
    val got = res.df.collect().map(r =>
      (r.getLong(0), r.getLong(1), r.getLong(2), r.getString(3))).toSet
    val brute = BruteForce.run(mem,
      Seq(NodeSeeds(Seq(2L, 4L)), NodeSeeds(Seq(3L, 6L)), NodeSeeds(Seq(9L))))
    val expected = brute.results.map(t =>
      (t.seedIds(0), t.seedIds(1), t.seedIds(2), t.edgeIds.mkString(","))).toSet
    assert(got == expected)
    assert(got.nonEmpty)
    assert(res.traces.size == 1)
    assert(res.traces.head.seedSizes == Seq(2L, 2L, 1L))
  }

  test("constant CTP members: connections between Carl and Eva") {
    val q = EqlParser.parse("""(w) :- ("Carl", "Eva", *w)""")
    val got = EqlEvaluator.evaluate(spark, g, q).df.collect().map(_.getString(0)).toSet
    val expected = BruteForce.run(mem, Seq(NodeSeeds(Seq(4L)), NodeSeeds(Seq(9L))))
      .results.map(_.edgeIds.mkString(",")).toSet
    assert(got == expected)
    assert(got.nonEmpty)
  }

  test("CTP filters flow through the evaluator (MAX + LABEL)") {
    val q = EqlParser.parse(
      """(w) :- ("Carl", "Eva", *w) [MAX 3, LABEL("worksFor","knows")]""")
    val got = EqlEvaluator.evaluate(spark, g, q).df.collect().map(_.getString(0)).toSet
    val expected = BruteForce.run(mem, Seq(NodeSeeds(Seq(4L)), NodeSeeds(Seq(9L))),
      CtpEvalConfig(maxEdges = 3, labels = Some(Set("worksFor", "knows"))))
      .results.map(_.edgeIds.mkString(",")).toSet
    assert(got == expected)
    assert(got == Set("6,7,8")) // Carl-worksFor-OrgC-worksFor-Dan-knows-Eva
  }

  test("unbound unconstrained CTP member becomes an N seed set (§4.9)") {
    val q = EqlParser.parse("""(w) :- ("Bob", n, *w) [MAX 1]""")
    val got = EqlEvaluator.evaluate(spark, g, q).df.collect().map(_.getString(0)).toSet
    val expected = BruteForce.run(mem,
      Seq(NodeSeeds(Seq(2L)), repro.ctp.AllNodeSeeds), CtpEvalConfig(maxEdges = 1))
      .results.map(_.edgeIds.mkString(",")).toSet
    assert(got == expected)
    // Bob alone (0 edges) + each of Bob's incident edges.
    assert(got.contains(""))
  }

  test("UNI filter via the evaluator") {
    val q = EqlParser.parse("""(w) :- ("Carl", "OrgB", *w) [UNI]""")
    val got = EqlEvaluator.evaluate(spark, g, q).df.collect().map(_.getString(0)).toSet
    val expected = BruteForce.run(mem, Seq(NodeSeeds(Seq(4L)), NodeSeeds(Seq(1L))),
      CtpEvalConfig(uni = true)).results.map(_.edgeIds.mkString(",")).toSet
    assert(got == expected)
    assert(got == Set("5")) // the founded edge, directed Carl -> OrgB
  }

  test("TOP 1 with the size score returns only the smallest connection") {
    val q = EqlParser.parse("""(w) :- ("Bob", "Eva", *w) [SCORE size TOP 1]""")
    val rows = EqlEvaluator.evaluate(spark, g, q).df.collect()
    assert(rows.length == 1)
    val bruteMin = BruteForce.run(mem, Seq(NodeSeeds(Seq(2L)), NodeSeeds(Seq(9L))))
      .results.map(_.size).min
    assert(rows.head.getString(0).split(',').length == bruteMin)
  }

  test("CDF m=2 query returns one row per link") {
    val nL = 6
    val (gen, info) = GraphGen.cdf(2, nT = 2, nL = nL, sL = 3, seed = 42)
    val pg = gen.toPropertyGraph(spark)
    val q = EqlParser.parse(
      """(v, tl, l) :- (x, "c", tl), (v, "g", bl), (bl, tl, *l)""")
    val res = EqlEvaluator.evaluate(spark, pg, q)
    assert(res.df.count() == nL.toLong)
    assert(res.traces.head.numResults == nL) // CTP side: exactly the links
    assert(info.numLinks == nL)
  }

  test("CDF m=3: UNI gives exactly one row per link; bidirectional finds extra trees") {
    val nL = 5
    val (gen, _) = GraphGen.cdf(3, nT = 2, nL = nL, sL = 3, seed = 43)
    val pg = gen.toPropertyGraph(spark)
    // Under UNI the only apex-rooted results are the Y-links themselves.
    val qUni = EqlParser.parse(
      """(tl, l) :- (x, "c", tl), (v, "g", bl1), (v, "h", bl2), (tl, bl1, bl2, *l) [UNI]""")
    val resUni = EqlEvaluator.evaluate(spark, pg, qUni)
    // One row per link, plus "mixed" trees when two links share a top
    // leaf and a sibling pair (the random placement may collide).
    val uniCount = resUni.df.count()
    assert(uniCount >= nL.toLong && uniCount <= 2L * nL)
    // §5.5.1: bidirectional MoLESP finds extra trees (e.g. connecting
    // bottom leaves through their own forest); the BGP join filters the
    // non-sibling ones, so at least the nL link rows survive.
    val q = EqlParser.parse(
      """(tl, l) :- (x, "c", tl), (v, "g", bl1), (v, "h", bl2), (tl, bl1, bl2, *l)""")
    val res = EqlEvaluator.evaluate(spark, pg, q)
    assert(res.df.count() >= nL.toLong)
    assert(res.traces.head.numResults > nL)
  }

  test("multiple CTPs in one query join independently") {
    val q = EqlParser.parse(
      """(w1, w2) :- ("Bob", "Alice", *w1) [MAX 1], ("Dan", "Eva", *w2) [MAX 1]""")
    val rows = EqlEvaluator.evaluate(spark, g, q).df.collect()
    assert(rows.length == 1)
    assert(rows.head.getString(0) == "9") // Bob-knows-Alice
    assert(rows.head.getString(1) == "8") // Eva-knows-Dan (reverse edge)
  }

  test("seed-distance pruning produces identical results (MAX present)") {
    val q = EqlParser.parse("""(w) :- ("Bob", "Eva", *w) [MAX 3]""")
    val withPrune = EqlEvaluator.evaluate(spark, g, q, EqlOptions(graphxPrune = true))
      .df.collect().map(_.getString(0)).toSet
    val noPrune = EqlEvaluator.evaluate(spark, g, q, EqlOptions(graphxPrune = false))
      .df.collect().map(_.getString(0)).toSet
    assert(withPrune == noPrune)
    assert(withPrune.nonEmpty)
  }

  test("auto-balanced queues trigger on skewed seed sets") {
    val q = EqlParser.parse("""(w) :- (type(p)="entrepreneur", n, *w) [MAX 1]""")
    // p: 4 entrepreneurs; n: N seed set -> balanced queues kick in.
    val res = EqlEvaluator.evaluate(spark, g, q)
    assert(res.traces.head.balanced)
  }

  test("BFT algorithms are usable through the evaluator too") {
    val q = EqlParser.parse("""(w) :- ("Carl", "Eva", *w)""")
    val molesp = EqlEvaluator.evaluate(spark, g, q).df.collect().map(_.getString(0)).toSet
    val bft = EqlEvaluator.evaluate(spark, g, q, EqlOptions(algorithm = "BFT"))
      .df.collect().map(_.getString(0)).toSet
    assert(bft == molesp)
  }
}
