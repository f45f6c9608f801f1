package repro.core

import org.apache.spark.sql.functions.{col, udf}
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}
import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.ctp.{BruteForce, CtpEvalConfig, NodeSeeds}
import repro.gen.GraphGen

/** End-to-end EQL evaluation (§3 steps A/B/C) on the sample graph and on
  * CDF benchmark graphs, validated against BruteForce + manual joins.
  */
class EqlEvaluatorSpec extends SparkSpec {

  private lazy val g = SampleGraph.pg(spark)
  private lazy val mem = SampleGraph.inMemory

  /** The paper's Q1: three BGPs and one CTP. */
  private val q1 = EqlParser.parse(
    """(x, y, z, w) :- (type(x)="entrepreneur", "citizenOf", "USA"),
      |                (type(y)="entrepreneur", "citizenOf", "France"),
      |                (type(z)="politician", "citizenOf", "France"),
      |                (x, y, z, *w)""".stripMargin)

  test("paper Q1: entrepreneurs/politician connections, joined with BGPs") {
    val res = EqlEvaluator.evaluate(spark, g, q1)
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
    assert(res.phaseMs.keys.toSeq == Seq("bgp", "seeds", "search", "tail"))
    assert(res.phaseMs.values.forall(_ >= 0))
  }

  test("a node table that fails to load fails evaluate with its exception") {
    val failing = udf { (t: String) =>
      if (t == "politician") throw new IllegalStateException("no politicians here") else t
    }
    val pg = PropertyGraph(g.nodes.withColumn("ntype", failing(col("ntype"))), g.edges)
    // The first query on a graph loads its in-memory copy, node types included.
    val q = EqlParser.parse("""(x) :- (x, "founded", f)""")
    val e = intercept[Exception](EqlEvaluator.evaluate(spark, pg, q))
    val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
    assert(messages.exists(m => m != null && m.contains("no politicians here")), e)
  }

  test("EqlResult.df is a local relation: collect starts no Spark job") {
    val log = new JobLog(spark.sparkContext)
    try {
      val res = EqlEvaluator.evaluate(spark, g, q1)
      val (rows, jobs) = log.during(res.df.collect())
      assert(rows.nonEmpty)
      assert(jobs.isEmpty, jobs.map(JobLog.rddNames))
    } finally log.close()
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
    assert(res.df.collect().length == nL)
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
    val uniCount = resUni.df.collect().length
    assert(uniCount >= nL && uniCount <= 2 * nL)
    // §5.5.1: bidirectional MoLESP finds extra trees (e.g. connecting
    // bottom leaves through their own forest); the BGP join filters the
    // non-sibling ones, so at least the nL link rows survive.
    val q = EqlParser.parse(
      """(tl, l) :- (x, "c", tl), (v, "g", bl1), (v, "h", bl2), (tl, bl1, bl2, *l)""")
    val res = EqlEvaluator.evaluate(spark, pg, q)
    assert(res.df.collect().length >= nL)
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

  test("repeated queries leave no persisted RDDs behind") {
    val queries = Seq(
      """(x, y) :- (x, "founded", f), (y, "advises", p)""",
      """(o) :- (a, "worksFor", o), (b, "worksFor", o)""",
      """(x, w) :- (type(x)="entrepreneur", "citizenOf", "USA"), (x, "Eva", *w) [MAX 3]""",
      """(w) :- ("Carl", "Eva", *w)""",
    ).map(EqlParser.parse)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    (0 until 20).foreach(i => EqlEvaluator.evaluate(spark, g, queries(i % queries.size)).df.collect())
    assert(sc.getPersistentRDDs.size <= before)
  }

  /** A J1-shaped graph: typed sources of "p0"/"p1" edges (the BGPs) and
    * "q" edges that connect x- to y-candidates and y- to z-candidates.
    */
  private object J1Graph {
    val nodes: Seq[GNode] =
      Seq(GNode(1, "a1", "A"), GNode(2, "a2", "A"), GNode(3, "a3", "A"),
        GNode(4, "b1", "B"), GNode(5, "b2", "B"), GNode(6, "c1", "C"), GNode(7, "c2", "C")) ++
        (11L to 16L).map(i => GNode(i, s"h$i", ""))
    val edges: Seq[GEdge] = Seq(
      GEdge(0, 1, "p0", 11), GEdge(1, 2, "p0", 12), GEdge(2, 3, "p0", 13),
      GEdge(3, 4, "p0", 14), GEdge(4, 5, "p0", 11), GEdge(5, 6, "p1", 15), GEdge(6, 7, "p1", 12),
      GEdge(7, 1, "q", 16), GEdge(8, 16, "q", 4), GEdge(9, 2, "q", 5), GEdge(10, 4, "q", 6),
      GEdge(11, 5, "q", 15), GEdge(12, 7, "q", 16))
    /** (source, target) of the edges with `label` whose source has `ntype`. */
    def bgp(ntype: String, label: String): Set[(Long, Long)] = edges.collect {
      case e if e.label == label && nodes.exists(n => n.id == e.src && n.ntype == ntype) => (e.src, e.dst)
    }.toSet
  }

  /** For each step of step (C) after the first, the columns its relation
    * shares with the relations joined before it; an empty set is a cross
    * step.
    */
  private def sharedPerStep(relations: Seq[EqlEvaluator.Relation]): Seq[Set[String]] = {
    val order = EqlEvaluator.joinOrder(relations)
    order.indices.tail.map(i => order(i).columns & order.take(i).flatMap(_.columns).toSet)
  }

  private def bgpRelations(pg: PropertyGraph, q: EqlQuery): Seq[EqlEvaluator.Relation] =
    q.bgps.map(BgpCompiler.bindings(pg.inMemory, _))

  private val j1 = EqlParser.parse(
    """(x, y, z, w1, w2) :- (type(x)="A", "p0", xn), (type(y)="B", "p0", yn),
      |  (type(z)="C", "p1", zn), (x, y, *w1) [MAX 3], (y, z, *w2) [MAX 3]""".stripMargin)

  test("step (C) joins along shared variables: J1 shape matches a plain join") {
    val pg = PropertyGraph.fromSeqs(spark, J1Graph.nodes, J1Graph.edges)
    val q = j1
    val res = EqlEvaluator.evaluate(spark, pg, q)
    val got = res.df.collect().map(_.toSeq).toSet

    val (bx, by, bz) = (J1Graph.bgp("A", "p0"), J1Graph.bgp("B", "p0"), J1Graph.bgp("C", "p1"))
    val mem = InMemoryGraph.fromSeqs(J1Graph.nodes.map(_.id), J1Graph.edges)
    def ctp(s1: Set[(Long, Long)], s2: Set[(Long, Long)]): Set[(Long, Long, String)] =
      BruteForce.run(mem, Seq(NodeSeeds(s1.map(_._1).toSeq), NodeSeeds(s2.map(_._1).toSeq)),
        CtpEvalConfig(maxEdges = 3)).results.map(t => (t.seedIds(0), t.seedIds(1), t.edgeIds.mkString(","))).toSet
    val (c1, c2) = (ctp(bx, by), ctp(by, bz))
    val expected = for {
      (x, _) <- bx; (y, _) <- by; (z, _) <- bz
      (x1, y1, w1) <- c1 if x1 == x && y1 == y
      (y2, z2, w2) <- c2 if y2 == y && z2 == z
    } yield Seq[Any](x, y, z, w1, w2)
    assert(got == expected)
    assert(got.size >= 2)

    // Step (C) over the same relations: the three BGP tables share no
    // column, yet every step joins along a shared one.
    def ctpRelation(v1: String, v2: String, w: String, trees: Set[(Long, Long, String)]) =
      EqlEvaluator.Relation(
        StructType(Seq(StructField(v1, LongType), StructField(v2, LongType),
          StructField(w, StringType), StructField(s"${w}_score", DoubleType))),
        trees.toArray.map { case (a, b, t) => Row(a, b, t, t.split(',').length.toDouble) })
    assert(res.traces.map(_.numResults) == Seq(c1.size, c2.size))
    val steps = sharedPerStep(bgpRelations(pg, q) ++
      Seq(ctpRelation("x", "y", "w1", c1), ctpRelation("y", "z", "w2", c2)))
    assert(steps.size == 4)
    assert(steps.forall(_.nonEmpty), steps)
  }

  test("step (C) still cross-joins unconnected BGPs when nothing connects them") {
    val pg = PropertyGraph.fromSeqs(spark, J1Graph.nodes, J1Graph.edges)
    val q = EqlParser.parse("""(x, z) :- (type(x)="A", "p0", xn), (type(z)="C", "p1", zn)""")
    val res = EqlEvaluator.evaluate(spark, pg, q)
    val got = res.df.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(got == (for ((x, _) <- J1Graph.bgp("A", "p0"); (z, _) <- J1Graph.bgp("C", "p1")) yield (x, z)))
    assert(got.size == 6)
    assert(sharedPerStep(bgpRelations(pg, q)) == Seq(Set.empty[String]))
  }

  test("LIMIT and TOP-k apply per CTP, before step (C)") {
    // CTP 1's smallest tree binds y to b1 (edge 0); only b2 reaches c within MAX 1.
    val pg = PropertyGraph.fromSeqs(spark,
      Seq(GNode(1, "a", "X"), GNode(2, "b1", "Y"), GNode(3, "m", ""), GNode(4, "b2", "Y"),
        GNode(5, "c", "Z")),
      Seq(GEdge(0, 1, "r", 2), GEdge(1, 1, "r", 3), GEdge(2, 3, "r", 4), GEdge(3, 4, "r", 5)))
    def rows(ctp1Filter: String) = EqlEvaluator.evaluate(spark, pg, EqlParser.parse(
      s"""(y, w1, w2) :- (type(x)="X", type(y)="Y", *w1)$ctp1Filter,
         |  (type(y)="Y", type(z)="Z", *w2) [MAX 1]""".stripMargin)).df.collect().map(_.toSeq).toSet
    assert(rows("") == Set(Seq[Any](4L, "1,2", "3")))
    assert(rows(" [LIMIT 1]").isEmpty)
    assert(rows(" [SCORE size TOP 1]").isEmpty)
  }

  test("a query on a loaded graph starts no Spark job") {
    val j1Graph = PropertyGraph.fromSeqs(spark, J1Graph.nodes, J1Graph.edges)
    val (cdf, _) = GraphGen.cdf(3, nT = 2, nL = 5, sL = 3, seed = 43)
    val cdfGraph = cdf.toPropertyGraph(spark)
    val cdfM3 = EqlParser.parse(
      """(tl, l) :- (x, "c", tl), (v, "g", bl1), (v, "h", bl2), (tl, bl1, bl2, *l) [UNI]""")
    val memberWithConditions = EqlParser.parse(
      """(w) :- (type(p)="entrepreneur" & label(p)<"C", label(q)~"*a*", *w) [MAX 3]""")
    val queries = Seq(g -> q1, j1Graph -> j1, cdfGraph -> cdfM3, g -> memberWithConditions)
    val warmUp = EqlParser.parse("""(x) :- (x, e, y)""")
    queries.map(_._1).distinct.foreach(EqlEvaluator.evaluate(spark, _, warmUp))
    val log = new JobLog(spark.sparkContext)
    try {
      queries.foreach { case (pg, q) =>
        val (rows, jobs) = log.during(EqlEvaluator.evaluate(spark, pg, q).df.collect())
        assert(rows.nonEmpty, q)
        assert(jobs.isEmpty, (q, jobs.map(JobLog.rddNames)))
      }
    } finally log.close()
  }
}
