package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{EqlOptions, PropertyGraph}
import repro.ctp.{CtpEvalConfig, GamEngine, GamVariant, NodeSeeds}
import repro.gen.{CdfInfo, GeneratedGraph, GraphGen}

/** `eql-cdf`: the Fig. 13/14 CDF queries, m = 2 and m = 3, each with and
  * without UNI, on CDF graphs of N_T = 2000, N_L = 4000, S_L = 3 (36K
  * edges each; one graph per m, links placed from the seed). A round is
  * the four queries; the same texts recur, so
  * their BGP tables stay in Spark's cache after the first round.
  */
final class EqlCdf(seed: Long, localDir: String, traced: Boolean) extends Workload {
  import EqlCdf._

  val warmupRounds = 1
  private var spark: SparkSession = _
  private var listener: LayerListener = _
  private var runners: Map[Int, EqlRun] = Map.empty
  private val gens: Map[Int, (GeneratedGraph, CdfInfo)] =
    Seq(2, 3).map(m => m -> GraphGen.cdf(m, 2000, 4000, 3, seed = seed * 2 + m)).toMap
  private lazy val expected: Map[(Int, Boolean), Set[Seq[Any]]] =
    (for (m <- Seq(2, 3); uni <- Seq(false, true)) yield (m, uni) -> reference(m, uni)).toMap

  def setUp(): Unit = {
    spark = SparkSide.session(localDir)
    if (traced) { listener = new LayerListener; spark.sparkContext.addSparkListener(listener) }
    runners = gens.map { case (m, (g, _)) =>
      val pg = PropertyGraph.fromSeqs(spark, g.nodes, g.edges).cached()
      pg.numNodes; pg.numEdges
      m -> new EqlRun(spark, pg, listener, EqlOptions())
    }
  }

  def round(r: Int): Option[Seq[Op]] = {
    val order = for (m <- Seq(2, 3); uni <- Seq(false, true)) yield (m, uni)
    Some(order.map { case (m, uni) =>
      new EqlOp(s"CDF m=$m${if (uni) " UNI" else ""}", query(m, uni), runners(m),
        if (r >= 0) expected((m, uni)) else Set.empty,
        row => if (m == 3) checkM3Row(row, uni) else None)
    })
  }

  private lazy val refs: Map[Int, RefGraph] = gens.map { case (m, (g, _)) => m -> RefGraph(g.nodes, g.edges) }

  /** m = 2: exactly one row per generated link (a chain of S_L "x" edges
    * from a top "c"-leaf to a bottom "g"-leaf), found by following the
    * generated edge list. m = 3: GAM's answers on the generator's seed
    * sets, kept where the bottom leaves are siblings (the query's BGP).
    */
  private def reference(m: Int, uni: Boolean): Set[Seq[Any]] = {
    val (gen, info) = gens(m)
    val g = refs(m)
    if (m == 2) {
      val gLeaves = info.bottomGLeaves.toSet
      val gParent = gen.edges.filter(_.label == "g").map(e => e.dst -> e.src).toMap
      info.topCLeaves.flatMap { tl =>
        g.out(tl.toInt).filter(e => g.edges(e).label == "x").map { first =>
          var chain = List(first)
          var cur = g.edges(first).dst
          while (!gLeaves(cur)) {
            val next = g.out(cur.toInt).filter(e => g.edges(e).label == "x")
            require(next.length == 1, s"link node $cur has ${next.length} x-edges")
            chain ::= next(0); cur = g.edges(next(0)).dst
          }
          Seq[Any](gParent(cur), tl, g.key(chain))
        }
      }.toSet
    } else {
      val sib = siblingsM3
      val specs = Seq(info.topCLeaves, info.bottomGLeaves, info.bottomHLeaves).map(NodeSeeds(_))
      val out = GamEngine.run(gen.toInMemory, specs, CtpEvalConfig(uni = uni), GamVariant.GAM)
      require(!out.stats.timedOut)
      out.results.collect {
        case t if sib.get(t.seedIds(1)).contains(t.seedIds(2)) =>
          Seq[Any](t.seedIds(0), t.edgeIds.mkString(","))
      }.toSet
    }
  }

  private lazy val siblingsM3: Map[Long, Long] = {
    val (gen, _) = gens(3)
    val gOf = gen.edges.filter(_.label == "g").map(e => e.src -> e.dst).toMap
    gen.edges.filter(_.label == "h").map(e => gOf(e.src) -> e.dst).toMap
  }
  private lazy val seedSetsM3: Seq[Set[Long]] = {
    val info = gens(3)._2
    Seq(info.topCLeaves.toSet, info.bottomGLeaves.toSet, info.bottomHLeaves.toSet)
  }

  /** The tree checker on one m = 3 row (tl, l). */
  private def checkM3Row(row: Seq[Any], uni: Boolean): Option[String] = {
    val tl = row(0).asInstanceOf[Long]
    val tree = row(1).asInstanceOf[String]
    TreeCheck(refs(3), TreeCheck.parse(tree), seedSetsM3, uni) match {
      case Left(why) => Some(s"tree $tree: $why")
      case Right(bound) =>
        if (bound(0) != tl) Some(s"tree $tree binds ${bound(0)}, row says $tl")
        else if (!siblingsM3.get(bound(1)).contains(bound(2))) Some(s"tree $tree: leaves not siblings")
        else None
    }
  }

  override def close(): Unit = {
    if (listener != null) Console.err.print(listener.report())
    if (spark != null) spark.stop()
  }
}

object EqlCdf {
  def query(m: Int, uni: Boolean): String = {
    val f = if (uni) " [UNI]" else ""
    if (m == 2) s"""(v, tl, l) :- (x, "c", tl), (v, "g", bl), (bl, tl, *l)$f"""
    else s"""(tl, l) :- (x, "c", tl), (v, "g", bl1), (v, "h", bl2), (tl, bl1, bl2, *l)$f"""
  }
}
