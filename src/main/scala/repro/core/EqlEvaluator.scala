package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}
import repro.ctp._

/** Options for EQL evaluation.
  *
  * @param algorithm        CTP algorithm ("MoLESP" default; any
  *                         [[GamVariant]] name, or "BFT"/"BFT-M"/"BFT-AM")
  * @param defaultTimeoutMs per-CTP timeout T when the query has none
  * @param autoBalance      enable §4.9's balanced queues when seed-set
  *                         sizes are skewed by ≥ this factor (0 disables)
  */
final case class EqlOptions(
    algorithm: String = "MoLESP",
    defaultTimeoutMs: Long = 600000L,
    autoBalance: Int = 16,
) {
  /** Always false: there is no prune before the search. It exists only
    * because perfbench's traced layer pass reads it, and goes with the
    * next change to the benchmark.
    */
  def graphxPrune: Boolean = false
}

/** Per-CTP evaluation trace, for benchmarks (§5.5 reports how time is
  * split between the CTP search and the relational part).
  */
final case class CtpTrace(treeVar: String, seedSizes: Seq[Long], stats: SearchStats,
                          numResults: Int, balanced: Boolean)

final case class EqlResult(df: DataFrame, traces: Seq[CtpTrace])

/** The paper's §3 evaluation strategy:
  * (A) evaluate each BGP into a bindings table (Spark SQL) and collect
  *     it to the driver, once per query;
  * (B) derive each CTP's seed sets from the collected bindings
  *     (Def. 2.10), then run the CTP algorithm with filters pushed down
  *     (§4.8) on the graph's in-memory copy, built once per graph (§5.1);
  * (C) natural-join the collected BGP rows and the CTP results as local
  *     relations and project the head.
  */
object EqlEvaluator {

  /** A driver-local relation: one BGP's collected bindings or one CTP's
    * results.
    */
  private final case class Relation(schema: StructType, rows: Array[Row]) {
    def columns: Set[String] = schema.fieldNames.toSet
    def toDF(spark: SparkSession): DataFrame =
      spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
  }

  /** Derives the seed spec of a CTP member (step B.1) from BGP tables:
    * the bindings projection when the variable occurs in a BGP
    * (optionally further restricted by the member predicate), else the
    * nodes matching the predicate, else `N`.
    */
  def seedSpec(g: PropertyGraph, member: Predicate,
               bgpTables: Seq[(Bgp, DataFrame)]): SeedSpec =
    seedsOf(g, member, bgpTables.collectFirst {
      case (b, table) if b.userVariables.contains(member.variable) =>
        table.select(col(member.variable)).distinct().collect().map(_.getLong(0))
    })

  /** The seed spec of a member whose BGP-bound values (if any) are
    * `bound`. A member with conditions runs one filter over `g.nodes`
    * and intersects the matching ids on the driver. Ids are distinct and
    * sorted, so the order does not depend on Spark's partitioning.
    */
  private def seedsOf(g: PropertyGraph, member: Predicate,
                      bound: Option[Array[Long]]): SeedSpec = {
    val ids =
      if (member.isUnconstrained) bound
      else {
        val matching = g.nodes
          .filter(member.conditions.map(c => BgpCompiler.condColumn(c, col("label"), col("ntype")))
            .reduce(_ && _))
          .select("id").collect().map(_.getLong(0))
        Some(bound.fold(matching) { b => val m = matching.toSet; b.filter(m) })
      }
    ids.fold[SeedSpec](AllNodeSeeds)(a => NodeSeeds(a.distinct.sorted.toSeq))
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
      balancedQueues = balanced,
    )

  private def runAlgorithm(name: String, ctx: SearchContext): SearchOutcome =
    name match {
      case "BFT" | "BFT-M" | "BFT-AM" => BftEngine.run(ctx, BftMerge.byName(name))
      case other                      => GamEngine.run(ctx, GamVariant.byName(other))
    }

  /** CTP results as a relation: one column per concrete member variable
    * (node id), plus the tree (sorted edge-id string) and its score.
    */
  private def ctpRelation(ctp: Ctp, specs: Seq[SeedSpec], out: SearchOutcome): Relation = {
    val memberCols = ctp.members.zip(specs).zipWithIndex.collect {
      case ((mem, spec), i) if spec != AllNodeSeeds && !mem.fresh => (mem.variable, i)
    }
    val schema = StructType(
      memberCols.map { case (v, _) => StructField(v, LongType) } ++
        Seq(StructField(ctp.treeVar, StringType),
            StructField(s"${ctp.treeVar}_score", DoubleType)))
    Relation(schema, out.results.iterator.map { t =>
      Row.fromSeq(memberCols.map { case (_, i) => t.seedIds(i) } ++
        Seq(t.edgeIds.mkString(","), t.score))
    }.toArray)
  }

  /** Step (C): the natural join of driver-local relations. It starts from
    * the smallest relation, then always joins the smallest one that
    * shares a variable with those already joined, and cross-joins only
    * when no such relation is left (Def. 2.10's cross product of
    * unconnected components).
    */
  private def naturalJoin(spark: SparkSession, relations: Seq[Relation]): DataFrame = {
    val bySize = relations.sortBy(_.rows.length)
    var acc = bySize.head.toDF(spark)
    var joinedCols = bySize.head.columns
    var rest = bySize.tail
    while (rest.nonEmpty) {
      val i = math.max(0, rest.indexWhere(r => (r.columns & joinedCols).nonEmpty))
      val next = rest(i)
      val common = next.schema.fieldNames.filter(joinedCols).toSeq
      acc = if (common.isEmpty) acc.crossJoin(next.toDF(spark)) else acc.join(next.toDF(spark), common)
      joinedCols ++= next.columns
      rest = rest.patch(i, Nil, 1)
    }
    acc
  }

  /** Evaluates an EQL query end to end.
    *
    * LIMIT and TOP-k apply to each CTP's own results, before step (C):
    * a CTP keeps its first (or k best) trees whether or not they join
    * with the rest of the body, so a query can come out empty although
    * other trees of the same CTP would have joined.
    */
  def evaluate(spark: SparkSession, g: PropertyGraph, query: EqlQuery,
               opts: EqlOptions = EqlOptions()): EqlResult = {
    // (A) BGP bindings, collected once.
    val bgpRelations = query.bgps.map { b =>
      val df = BgpCompiler.compile(g, b)
      (b, Relation(df.schema, df.collect()))
    }

    // (B) CTP evaluation with filters pushed down.
    val traces = collection.mutable.ArrayBuffer.empty[CtpTrace]
    val ctpRelations = query.ctps.map { ctp =>
      val specs = ctp.members.map { m =>
        seedsOf(g, m, bgpRelations.collectFirst {
          case (b, r) if b.userVariables.contains(m.variable) =>
            val j = r.schema.fieldIndex(m.variable)
            r.rows.map(_.getLong(j))
        })
      }
      val sizes = specs.map {
        case NodeSeeds(ids) => ids.size.toLong
        case AllNodeSeeds   => -1L
      }
      val concreteSizes = sizes.filter(_ >= 0)
      val balanced = opts.autoBalance > 0 && concreteSizes.nonEmpty &&
        (concreteSizes.max >= opts.autoBalance.toLong * math.max(1L, concreteSizes.min) ||
          sizes.contains(-1L))
      val cfg = configFor(ctp, opts, balanced)
      val ctx = new SearchContext(g.inMemory, specs, cfg)
      val out = runAlgorithm(opts.algorithm, ctx)
      traces += CtpTrace(ctp.treeVar, sizes, out.stats, out.results.size, balanced)
      ctpRelation(ctp, specs, out)
    }

    // (C) natural join of all relations, head projection, set semantics.
    val joined = naturalJoin(spark, bgpRelations.map(_._2) ++ ctpRelations)
    EqlResult(joined.select(query.head.map(col): _*).distinct(), traces.toSeq)
  }
}
