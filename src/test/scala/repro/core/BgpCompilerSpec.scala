package repro.core

import repro.{Oracle, SparkSpec}

/** Every matched BGP is checked twice: against hand-derived
  * expectations on the sample graph (and on a small graph of LIKE and
  * missing-row edge cases), and against DuckDB running
  * [[BgpCompiler.toDuckSql]] on the same tables (the Oracle).
  */
class BgpCompilerSpec extends SparkSpec {

  private lazy val g = SampleGraph.pg(spark)

  private def bgpOf(q: String): Bgp = EqlParser.parse(q).bgps.head

  private def checkAgainstOracle(bgp: Bgp, on: PropertyGraph = g): Unit =
    Oracle.assertEquivalent(
      BgpCompiler.compile(on, bgp),
      BgpCompiler.toDuckSql(bgp),
      "nodes" -> on.nodes, "edges" -> on.edges)

  /** Nodes 1–5 point at the hub 5 by "r" edges; node 6, the target of
    * the hub's own "r" edge, has no row in the nodes table.
    */
  private lazy val h = PropertyGraph.fromSeqs(spark,
    Seq(GNode(1, "e21", "t"), GNode(2, "e1", "t"), GNode(3, "abc", "t"),
      GNode(4, "a.cd", "t"), GNode(5, "hub", "")),
    Seq(GEdge(0, 1, "r", 5), GEdge(1, 2, "r", 5), GEdge(2, 3, "r", 5), GEdge(3, 4, "r", 5),
      GEdge(4, 5, "r", 6)))

  private def xs(bgp: Bgp, on: PropertyGraph): Set[Long] =
    BgpCompiler.compile(on, bgp).select("x").collect().map(_.getLong(0)).toSet

  test("single pattern with label constants: US citizens") {
    val bgp = bgpOf("""(x) :- (x, "citizenOf", "USA")""")
    val rows = BgpCompiler.compile(g, bgp).collect().map(_.getLong(0)).toSet
    assert(rows == Set(2L, 4L))
    checkAgainstOracle(bgp)
  }

  test("type + label predicate: French entrepreneurs") {
    val bgp = bgpOf("""(y) :- (type(y)="entrepreneur", "citizenOf", "France")""")
    val rows = BgpCompiler.compile(g, bgp).collect().map(_.getLong(0)).toSet
    assert(rows == Set(3L, 6L))
    checkAgainstOracle(bgp)
  }

  test("like operator: *lice matches Alice") {
    val bgp = bgpOf("""(x) :- (label(x)~"*lice", "citizenOf", c)""")
    val rows = BgpCompiler.compile(g, bgp).select("x").collect().map(_.getLong(0)).toSet
    assert(rows == Set(3L))
    checkAgainstOracle(bgp)
  }

  test("multi-pattern join: who founded something and is a US citizen") {
    val bgp = bgpOf("""(x, y) :- (x, "citizenOf", "USA"), (x, "founded", y)""")
    val rows = BgpCompiler.compile(g, bgp).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rows == Set((4L, 1L)))
    checkAgainstOracle(bgp)
  }

  test("three-hop join chain") {
    val bgp = bgpOf(
      """(x, o, d) :- (x, "founded", o), (o, "foundedIn", d), (x, "worksFor", c)""")
    val rows = BgpCompiler.compile(g, bgp).select("x", "o", "d").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSet
    assert(rows == Set((4L, 1L, 11L)))
    checkAgainstOracle(bgp)
  }

  test("edge variables bind to edge ids") {
    val bgp = bgpOf("""(x, e) :- (x, e, "OrgC")""")
    val rows = BgpCompiler.compile(g, bgp).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rows == Set((4L, 6L), (6L, 7L)))
    checkAgainstOracle(bgp)
  }

  test("shared target variable joins two sources") {
    val bgp = bgpOf("""(a, b) :- (a, "worksFor", o), (b, "worksFor", o)""")
    val rows = BgpCompiler.compile(g, bgp).select("a", "b").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rows == Set((4L, 4L), (4L, 6L), (6L, 4L), (6L, 6L)))
    checkAgainstOracle(bgp)
  }

  test("label inequality: countries with label < G") {
    val bgp = bgpOf("""(x, c) :- (x, "citizenOf", label(c)<"G")""")
    val rows = BgpCompiler.compile(g, bgp).select("c").collect().map(_.getLong(0)).toSet
    assert(rows == Set(8L)) // France
    checkAgainstOracle(bgp)
  }

  test("unsatisfiable predicate yields empty table") {
    val bgp = bgpOf("""(x) :- (x, "citizenOf", "Mars")""")
    assert(BgpCompiler.compile(g, bgp).count() == 0)
    checkAgainstOracle(bgp)
  }

  test("empty-predicate variables range over everything (distinct rows)") {
    val bgp = bgpOf("""(s, d) :- (s, e, d)""")
    val n = BgpCompiler.compile(g, bgp).count()
    assert(n == SampleGraph.edges.map(e => (e.src, e.dst)).distinct.size)
    checkAgainstOracle(bgp)
  }

  test("like operator: _ matches exactly one character") {
    val bgp = bgpOf("""(x) :- (label(x)~"e_1", "r", y)""")
    assert(xs(bgp, h) == Set(1L)) // e21, not e1
    checkAgainstOracle(bgp, h)
  }

  test("like operator: . is a literal character") {
    val bgp = bgpOf("""(x) :- (label(x)~"a.c*", "r", y)""")
    assert(xs(bgp, h) == Set(4L)) // a.cd, not abc
    checkAgainstOracle(bgp, h)
  }

  test("an endpoint with no node row fails every condition, type(x)=\"\" included") {
    val bgp = bgpOf("""(x, y) :- (x, "r", type(y)="")""")
    val rows = BgpCompiler.compile(h, bgp).select("x", "y").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rows == (1L to 4L).map(_ -> 5L).toSet) // not (5, 6)
    checkAgainstOracle(bgp, h)
  }

  test("an edge's type is the empty string") {
    val bgp = bgpOf("""(x, e) :- (x, type(e)="", "hub")""")
    assert(BgpCompiler.compile(h, bgp).collect().map(_.getLong(1)).toSet == Set(0L, 1L, 2L, 3L))
    checkAgainstOracle(bgp, h)
  }
}
