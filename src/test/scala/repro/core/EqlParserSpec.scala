package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EqlParserSpec extends AnyFunSuite {

  test("parses the paper's Q1 (3 BGP patterns + one CTP)") {
    val q = EqlParser.parse(
      """(x, y, z, w) :- (type(x)="entrepreneur", "citizenOf", "USA"),
        |                (type(y)="entrepreneur", "citizenOf", "France"),
        |                (type(z)="politician", "citizenOf", "France"),
        |                (x, y, z, *w)""".stripMargin)
    assert(q.head == Seq("x", "y", "z", "w"))
    // The three edge patterns share no variables: three 1-pattern BGPs.
    assert(q.bgps.size == 3)
    assert(q.ctps.size == 1)
    assert(q.ctps.head.memberVariables == Seq("x", "y", "z"))
    assert(q.ctps.head.treeVar == "w")
  }

  test("connected patterns collapse into one BGP") {
    val q = EqlParser.parse(
      """(x, w) :- (x, "citizenOf", c), (x, "founded", y), (y, "foundedIn", d), (x, c, *w)""")
    assert(q.bgps.size == 1)
    assert(q.bgps.head.patterns.size == 3)
  }

  test("constant shorthand becomes a fresh label-equality predicate") {
    val q = EqlParser.parse("""(x) :- (x, "knows", "Alice")""")
    val p = q.bgps.head.patterns.head
    assert(p.edge.fresh && p.dst.fresh && !p.src.fresh)
    assert(p.dst.conditions == Seq(Condition("label", Op.Eq, "Alice")))
  }

  test("parses all comparison operators and conjunctions") {
    val q = EqlParser.parse(
      """(x) :- (label(x)~"*lice" & type(x)="entrepreneur", y, label(z)<="M")""")
    val p = q.bgps.head.patterns.head
    assert(p.src.conditions == Seq(
      Condition("label", Op.Like, "*lice"), Condition("type", Op.Eq, "entrepreneur")))
    assert(p.dst.conditions == Seq(Condition("label", Op.Le, "M")))
    val q2 = EqlParser.parse("""(x) :- (label(x)<"B", "r", d)""")
    assert(q2.bgps.head.patterns.head.src.conditions.head.op == Op.Lt)
  }

  test("parses every CTP filter") {
    val q = EqlParser.parse(
      """(w) :- ("A", "B", *w) [UNI, LABEL("a","b"), MAX 5, SCORE size TOP 3, TIMEOUT 9000, LIMIT 2]""")
    val f = q.ctps.head.filters
    assert(f.uni)
    assert(f.labels.contains(Set("a", "b")))
    assert(f.maxEdges.contains(5))
    assert(f.score.contains("size"))
    assert(f.topK.contains(3))
    assert(f.timeoutMs.contains(9000L))
    assert(f.limit.contains(2))
  }

  test("CTP members may be bare variables, predicates, or constants") {
    val q = EqlParser.parse("""(t) :- (x, type(y)="politician", "USA", *t)""")
    val c = q.ctps.head
    assert(c.members.size == 3)
    assert(c.members(0).isUnconstrained)
    assert(c.members(1).conditions.nonEmpty && !c.members(1).fresh)
    assert(c.members(2).fresh)
  }

  test("a query can mix several CTPs and BGPs") {
    val q = EqlParser.parse(
      """(w1, w2) :- (a, "r", b), (c, "s", d), (a, c, *w1), (b, d, *w2) [MAX 4]""")
    assert(q.bgps.size == 2)
    assert(q.ctps.size == 2)
    assert(q.ctps(1).filters.maxEdges.contains(4))
  }

  test("rejects malformed input") {
    assertThrows[EqlParser.ParseException](EqlParser.parse("(x) :- "))
    assertThrows[EqlParser.ParseException](EqlParser.parse("(x) (y, z)"))
    assertThrows[EqlParser.ParseException](EqlParser.parse("""(x) :- (a, b)"""))
    assertThrows[EqlParser.ParseException](EqlParser.parse("""(x) :- (a, *t, b)"""))
    assertThrows[EqlParser.ParseException](EqlParser.parse("""(q) :- (a, "r", b)"""))
    assertThrows[EqlParser.ParseException](EqlParser.parse("""(x) :- (size(x)="3", "r", b)"""))
    assertThrows[EqlParser.ParseException](
      EqlParser.parse("""(x) :- (a, "r", b, *w) [FOO]"""))
  }

  test("rejects out-of-range numbers and unknown score names at their offset") {
    val prefix = """(w) :- ("A", "B", *w) ["""
    Seq("MAX 4294967299", "TOP 4294967296", "LIMIT 2147483648", "SCORE size TOP 2147483648",
        "TIMEOUT 99999999999999999999", "SCORE nosuch").foreach { filter =>
      val e = intercept[EqlParser.ParseException](EqlParser.parse(prefix + filter + "]"))
      assert(e.pos == prefix.length + filter.lastIndexOf(' ') + 1, filter)
    }
    val f = EqlParser.parse(prefix + "LIMIT 2147483647, TIMEOUT 9223372036854775807]").ctps.head.filters
    assert(f.limit.contains(Int.MaxValue) && f.timeoutMs.contains(Long.MaxValue))
  }

  test("head variables must be bound; tree vars are legal heads") {
    val q = EqlParser.parse("""(w) :- (a, b, *w)""")
    assert(q.head == Seq("w"))
  }
}
