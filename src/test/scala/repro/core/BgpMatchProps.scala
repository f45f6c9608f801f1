package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.forAllNoShrink
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}

/** Step (A)'s matcher against DuckDB: for random small graphs and BGPs,
  * [[BgpCompiler.compile]] equals, as a set, DuckDB running
  * [[BgpCompiler.toDuckSql]] over the same tables.
  *
  * The graphs have self-loops, multi-edges and edge endpoints with no
  * node row; labels and types share a small alphabet with `_` and `.`
  * in it, so LIKE's wildcards and literals both occur. The BGPs have 1–3
  * connected patterns, an edge variable each, sometimes a repeated node
  * variable `(x, e, x)`, and Eq, Lt, Le and LIKE conditions on nodes and
  * edges.
  */
object BgpMatchProps extends Properties("BgpMatch") {

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(100).withInitialSeed(Seed(20261020L))

  private val strings = Seq("", "a", "ab", "a_b", "a.b", "_", ".")
  private val likePatterns = Seq("*", "a*", "*b", "a_b", "_", "*.*", "*_*", "a.b", ".*", "_._", "%b", "")

  private case class Case(nodes: Seq[GNode], edges: Seq[GEdge], bgp: Bgp)

  private val graph: Gen[(Seq[GNode], Seq[GEdge])] = for {
    n      <- Gen.choose(2, 12)
    rowed  <- Gen.sequence[Seq[Boolean], Boolean](Seq.fill(n)(Gen.prob(0.8)))
    nodes  <- Gen.sequence[Seq[GNode], GNode]((0L until n).filter(i => rowed(i.toInt)).map(id =>
                for (l <- Gen.oneOf(strings); t <- Gen.oneOf(strings)) yield GNode(id, l, t)))
    k      <- Gen.choose(math.min(2 * n, 20), 20)
    edges  <- Gen.listOfN(k, for {
                s    <- Gen.choose(0L, n - 1L)
                loop <- Gen.prob(0.2)
                d    <- if (loop) Gen.const(s) else Gen.choose(0L, n - 1L)
                l    <- Gen.oneOf(strings)
              } yield (s, l, d))
  } yield (nodes, edges.zipWithIndex.map { case ((s, l, d), i) => GEdge(i.toLong, s, l, d) })

  /** Eq compares with a label or type that occurs in the graph (`seen`),
    * so that it matches something.
    */
  private def condition(seen: Seq[String]): Gen[Condition] = for {
    prop <- Gen.oneOf("label", "type")
    op   <- Gen.oneOf(Op.Eq, Op.Lt, Op.Le, Op.Like)
    v    <- Gen.oneOf(op match { case Op.Like => likePatterns; case Op.Eq => seen; case _ => strings })
  } yield Condition(prop, op, v)

  /** 1–3 patterns; each one after the first starts or ends at a node
    * variable of an earlier one, so the BGP is connected. One to three
    * conditions go to random places among the patterns' predicates: with
    * more, nearly every BGP matches nothing.
    */
  private def bgp(seen: Seq[String]): Gen[Bgp] = for {
    k        <- Gen.choose(1, 3)
    patterns <- (0 until k).foldLeft(Gen.const(Vector.empty[EdgePattern])) { (acc, i) =>
                  acc.flatMap { ps =>
                    val known = ps.flatMap(p => Seq(p.src.variable, p.dst.variable)).distinct
                    for {
                      a       <- if (known.isEmpty) Gen.const("x0") else Gen.oneOf(known)
                      b       <- Gen.frequency(Seq(4 -> Gen.const(s"x${i + 1}"), 1 -> Gen.const(a)) ++
                                   Option.when(known.nonEmpty)(1 -> Gen.oneOf(known)): _*)
                      forward <- Gen.prob(0.5)
                      (s, d)   = if (forward) (a, b) else (b, a)
                    } yield ps :+ EdgePattern(Predicate(s, Nil), Predicate(s"e$i", Nil), Predicate(d, Nil))
                  }
                }
    n        <- Gen.choose(1, 3)
    placed   <- Gen.listOfN(n, Gen.zip(Gen.choose(0, 3 * k - 1), condition(seen)))
  } yield Bgp(patterns.zipWithIndex.map { case (p, i) =>
    def at(slot: Int, pred: Predicate) =
      pred.copy(conditions = placed.collect { case (`slot`, c) => c })
    EdgePattern(at(3 * i, p.src), at(3 * i + 1, p.edge), at(3 * i + 2, p.dst))
  })

  private val cases: Gen[Case] = for {
    (nodes, edges) <- graph
    b              <- bgp((nodes.flatMap(n => Seq(n.label, n.ntype)) ++ edges.map(_.label) :+ "").distinct)
  } yield Case(nodes, edges, b)

  property("compile = DuckDB over toDuckSql") = forAllNoShrink(cases) { c =>
    val g = PropertyGraph.fromSeqs(SparkSpec.shared, c.nodes, c.edges)
    val matched = BgpCompiler.compile(g, c.bgp)
    Oracle.assertEquivalent(matched, BgpCompiler.toDuckSql(c.bgp), "nodes" -> g.nodes, "edges" -> g.edges)
    Prop.classify(matched.collect().nonEmpty, "some rows", "no rows")(Prop.passed)
  }
}
