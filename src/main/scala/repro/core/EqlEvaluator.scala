package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}
import repro.ctp._
import repro.gx.SeedDistances

/** Options for EQL evaluation.
  *
  * @param algorithm        CTP algorithm ("MoLESP" default; any
  *                         [[GamVariant]] name, or "BFT"/"BFT-M"/"BFT-AM")
  * @param defaultTimeoutMs per-CTP timeout T when the query has none
  * @param autoBalance      enable §4.9's balanced queues when seed-set
  *                         sizes are skewed by ≥ this factor (0 disables)
  * @param graphxPrune      when a CTP carries a MAX filter and only
  *                         concrete seed sets, restrict its search to the
  *                         nodes within MAX edges of every seed set, found
  *                         by a bounded BFS on the in-memory graph
  *                         ([[SeedDistances.prune]]); the name is kept for
  *                         existing callers
  */
final case class EqlOptions(
    algorithm: String = "MoLESP",
    defaultTimeoutMs: Long = 600000L,
    autoBalance: Int = 16,
    graphxPrune: Boolean = true,
    tieSeed: Long = 0L,
)

/** Per-CTP evaluation trace, for benchmarks (§5.5 reports how time is
  * split between the CTP search and the relational part).
  */
final case class CtpTrace(treeVar: String, seedSizes: Seq[Long], stats: SearchStats,
                          numResults: Int, balanced: Boolean)

final case class EqlResult(df: DataFrame, traces: Seq[CtpTrace])

/** The paper's §3 evaluation strategy:
  * (A) evaluate each BGP into a bindings table (Spark SQL);
  * (B) derive each CTP's seed sets from the bindings (Def. 2.10), then
  *     run the CTP algorithm with filters pushed down (§4.8);
  * (C) natural-join everything and project the head.
  */
object EqlEvaluator {

  /** Derives the seed spec of a CTP member (step B.1): the bindings
    * projection when the variable occurs in a BGP (optionally further
    * restricted by the member predicate), else the nodes matching the
    * predicate, else `N`.
    */
  def seedSpec(g: PropertyGraph, member: Predicate,
               bgpTables: Seq[(Bgp, DataFrame)]): SeedSpec = {
    val v = member.variable
    val fromBgp = bgpTables.find { case (b, _) => b.userVariables.contains(v) }
    fromBgp match {
      case Some((_, table)) =>
        var ids = table.select(col(v) as "id").distinct()
        if (member.conditions.nonEmpty) {
          var nd = g.nodes
          member.conditions.foreach { c =>
            nd = nd.filter(BgpCompilerAccess.condColumn(c, nd("label"), nd("ntype")))
          }
          ids = ids.join(nd.select("id"), "id")
        }
        NodeSeeds(ids.collect().map(_.getLong(0)).toSeq)
      case None if member.isUnconstrained => AllNodeSeeds
      case None =>
        var nd = g.nodes
        member.conditions.foreach { c =>
          nd = nd.filter(BgpCompilerAccess.condColumn(c, nd("label"), nd("ntype")))
        }
        NodeSeeds(nd.select("id").collect().map(_.getLong(0)).toSeq)
    }
  }

  /** Builds the engine config from a CTP's parsed filters. */
  def configFor(ctp: Ctp, opts: EqlOptions, balanced: Boolean): CtpEvalConfig =
    CtpEvalConfig(
      uni = ctp.filters.uni,
      labels = ctp.filters.labels,
      maxEdges = ctp.filters.maxEdges.getOrElse(Int.MaxValue),
      timeoutMs = ctp.filters.timeoutMs.getOrElse(opts.defaultTimeoutMs),
      limit = ctp.filters.limit.getOrElse(Int.MaxValue),
      topK = ctp.filters.topK,
      score = ctp.filters.score.map(ScoreFunction.registry).getOrElse(SizeScore),
      tieSeed = opts.tieSeed,
      balancedQueues = balanced,
    )

  private def runAlgorithm(name: String, ctx: SearchContext): SearchOutcome =
    name match {
      case "BFT" | "BFT-M" | "BFT-AM" => BftEngine.run(ctx, BftMerge.byName(name))
      case other                      => GamEngine.run(ctx, GamVariant.byName(other))
    }

  /** Converts CTP results into a Spark table: one column per concrete
    * member variable (node id), plus the tree (sorted edge-id string)
    * and its score.
    */
  private def ctpTable(spark: SparkSession, ctp: Ctp, specs: Seq[SeedSpec],
                       out: SearchOutcome): DataFrame = {
    val memberCols = ctp.members.zip(specs).zipWithIndex.collect {
      case ((mem, spec), i) if spec != AllNodeSeeds && !mem.fresh => (mem.variable, i)
    }
    val schema = StructType(
      memberCols.map { case (v, _) => StructField(v, LongType) } ++
        Seq(StructField(ctp.treeVar, StringType),
            StructField(s"${ctp.treeVar}_score", DoubleType)))
    val rows = out.results.map { t =>
      Row.fromSeq(memberCols.map { case (_, i) => t.seedIds(i) } ++
        Seq(t.edgeIds.mkString(","), t.score))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, math.max(1, rows.size / 5000 + 1)), schema)
  }

  /** Evaluates an EQL query end to end. */
  def evaluate(spark: SparkSession, g: PropertyGraph, query: EqlQuery,
               opts: EqlOptions = EqlOptions()): EqlResult = {
    // (A) BGP tables, materialized.
    val bgpTables = query.bgps.map(b => (b, BgpCompiler.compile(g, b).cache()))
    bgpTables.foreach(_._2.count())

    // The in-memory graph is shared by all CTPs of the query.
    lazy val mem = InMemoryGraph.fromPropertyGraph(g)

    // (B) CTP evaluation with filters pushed down.
    val traces = collection.mutable.ArrayBuffer.empty[CtpTrace]
    val ctpTables: Seq[DataFrame] = query.ctps.map { ctp =>
      val specs = ctp.members.map(m => seedSpec(g, m, bgpTables))
      val sizes = specs.map {
        case NodeSeeds(ids) => ids.size.toLong
        case AllNodeSeeds   => -1L
      }
      val concreteSizes = sizes.filter(_ >= 0)
      val balanced = opts.autoBalance > 0 && concreteSizes.nonEmpty &&
        (concreteSizes.max >= opts.autoBalance.toLong * math.max(1L, concreteSizes.min) ||
          sizes.contains(-1L))
      val cfg = configFor(ctp, opts, balanced)
      val searchGraph =
        if (opts.graphxPrune && cfg.maxEdges != Int.MaxValue && !specs.contains(AllNodeSeeds)) {
          val seedIdSets = specs.collect { case NodeSeeds(ids) => ids }
          SeedDistances.prune(mem, seedIdSets, cfg.maxEdges)
        } else mem
      val ctx = new SearchContext(searchGraph, specs, cfg)
      val out = runAlgorithm(opts.algorithm, ctx)
      traces += CtpTrace(ctp.treeVar, sizes, out.stats, out.results.size, balanced)
      ctpTable(spark, ctp, specs, out)
    }

    // (C) natural join of all tables, head projection, set semantics.
    val all: Seq[DataFrame] = bgpTables.map(_._2) ++ ctpTables
    val joined = all.reduceLeft { (a, b) =>
      val common = a.columns.toSet.intersect(b.columns.toSet).toSeq
      if (common.isEmpty) a.crossJoin(b) else a.join(b, common)
    }
    val head = query.head.map(col)
    EqlResult(joined.select(head: _*).distinct(), traces.toSeq)
  }
}

/** Exposes the condition compiler to the evaluator without widening
  * [[BgpCompiler]]'s public surface.
  */
private[core] object BgpCompilerAccess {
  def condColumn(c: Condition, label: org.apache.spark.sql.Column,
                 ntype: org.apache.spark.sql.Column): org.apache.spark.sql.Column = {
    import org.apache.spark.sql.Column
    val target: Column = if (c.prop == "label") label else ntype
    c.op match {
      case Op.Eq   => target === c.value
      case Op.Lt   => target < c.value
      case Op.Le   => target <= c.value
      case Op.Like => target.like(c.value.replace('*', '%'))
    }
  }
}
