package repro.core

import scala.collection.immutable.SeqMap
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
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

/** The answer of one EQL query.
  *
  * @param df      the result rows, a local relation: `collect` on it
  *                starts no Spark job
  * @param traces  one entry per CTP, in body order
  * @param phaseMs wall milliseconds per phase of [[EqlEvaluator.evaluate]],
  *                named as perfbench's layers: `bgp` (step A's matching
  *                on the in-memory graph; on a graph's first query also
  *                its load from Spark), `seeds` (seed sets from the BGP
  *                rows and the member conditions), `search` (every CTP's
  *                search) and `tail` (CTP tables and step C)
  */
final case class EqlResult(df: DataFrame, traces: Seq[CtpTrace],
                           phaseMs: SeqMap[String, Double] = SeqMap.empty)

/** The paper's §3 evaluation strategy, all of it on the driver over the
  * graph's in-memory copy, built once per graph (§5.1):
  * (A) match each BGP into a bindings relation ([[BgpCompiler]]);
  * (B) derive each CTP's seed sets from the BGP bindings and the member
  *     conditions (Def. 2.10), then run the CTP algorithm with filters
  *     pushed down (§4.8);
  * (C) natural-join the BGP relations and the CTP results and project
  *     the head.
  */
object EqlEvaluator {

  /** A driver-local relation: one edge pattern's or one BGP's bindings,
    * or one CTP's results.
    */
  private[core] final case class Relation(schema: StructType, rows: Array[Row]) {
    def columns: Set[String] = schema.fieldNames.toSet

    /** The natural join with `next`, as a hash join: a table of `next`'s
      * rows keyed on the shared columns, probed with this relation's
      * rows. With no shared column it is the cross product.
      */
    def join(next: Relation): Relation = {
      val shared = next.schema.fieldNames.toSeq.filter(columns)
      val buildKey = shared.map(next.schema.fieldIndex)
      val probeKey = shared.map(schema.fieldIndex)
      val added = next.schema.fields.indices.filterNot(buildKey.contains)
      val table = next.rows.groupBy(r => buildKey.map(r.get))
      val out = for {
        r <- rows
        m <- table.getOrElse(probeKey.map(r.get), Array.empty[Row])
      } yield Row.fromSeq(r.toSeq ++ added.map(m.get))
      Relation(StructType(schema.fields ++ added.map(next.schema.fields)), out)
    }

    /** The distinct rows of the columns `vars`, in that order. */
    def project(vars: Seq[String]): Relation = {
      val idx = vars.map(schema.fieldIndex)
      Relation(StructType(idx.map(schema.fields)),
        rows.iterator.map(r => Row.fromSeq(idx.map(r.get))).distinct.toArray)
    }
  }

  /** Derives the seed spec of a CTP member (step B.1) from BGP tables:
    * the bindings projection when the variable occurs in a BGP
    * (optionally further restricted by the member predicate), else the
    * nodes matching the predicate, else `N`.
    */
  def seedSpec(g: PropertyGraph, member: Predicate,
               bgpTables: Seq[(Bgp, DataFrame)]): SeedSpec =
    memberSeeds(g.inMemory, member,
      bgpTables.map { case (b, table) => (b, Relation(table.schema, table.collect())) })

  /** [[seedSpec]] over BGP relations: the intersection of the values a
    * BGP binds to the member's variable (if one does) and the nodes
    * matching its conditions (if it has any), either one alone, or `N`.
    * Ids are distinct and sorted.
    */
  private def memberSeeds(mem: InMemoryGraph, member: Predicate,
                          bgpRelations: Seq[(Bgp, Relation)]): SeedSpec = {
    val bound = bgpRelations.collectFirst {
      case (b, r) if b.userVariables.contains(member.variable) =>
        val j = r.schema.fieldIndex(member.variable)
        r.rows.map(_.getLong(j))
    }
    val matching = Option.unless(member.isUnconstrained)(BgpCompiler.nodesWhere(mem, member.conditions))
    val ids = (bound, matching) match {
      case (Some(b), Some(m)) => val s = m.toSet; Some(b.filter(s))
      case _                  => bound.orElse(matching)
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

  /** The order of step (C): the smallest relation first, then always the
    * smallest one that shares a column with those already placed, and
    * one that shares none only when no such relation is left (Def.
    * 2.10's cross product of unconnected components).
    */
  private[core] def joinOrder(relations: Seq[Relation]): Seq[Relation] = {
    val bySize = relations.sortBy(_.rows.length)
    val order = Seq.newBuilder[Relation]
    var placedCols = Set.empty[String]
    var rest = bySize
    while (rest.nonEmpty) {
      val i = math.max(0, rest.indexWhere(r => (r.columns & placedCols).nonEmpty))
      order += rest(i)
      placedCols ++= rest(i).columns
      rest = rest.patch(i, Nil, 1)
    }
    order.result()
  }

  /** Step (C): the natural join of driver-local relations, in
    * [[joinOrder]].
    */
  private[core] def naturalJoin(relations: Seq[Relation]): Relation =
    joinOrder(relations).reduceLeft(_ join _)

  private def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Evaluates an EQL query end to end.
    *
    * The query's only Spark work is the first query on a graph, which
    * loads the graph's in-memory copy. Everything else runs on the
    * driver, and the result is a local relation.
    *
    * LIMIT and TOP-k apply to each CTP's own results, before step (C):
    * a CTP keeps its first (or k best) trees whether or not they join
    * with the rest of the body, so a query can come out empty although
    * other trees of the same CTP would have joined.
    */
  def evaluate(spark: SparkSession, g: PropertyGraph, query: EqlQuery,
               opts: EqlOptions = EqlOptions()): EqlResult = {
    // (A) BGP bindings on the in-memory graph.
    val t0 = System.nanoTime()
    val mem = g.inMemory
    val bgpRelations = query.bgps.map(b => (b, BgpCompiler.bindings(mem, b)))
    val bgpMs = msSince(t0)

    // (B) CTP evaluation with filters pushed down.
    var seedsMs, searchMs = 0.0
    val traces = collection.mutable.ArrayBuffer.empty[CtpTrace]
    val ctpRuns = query.ctps.map { ctp =>
      val t1 = System.nanoTime()
      val specs = ctp.members.map(memberSeeds(mem, _, bgpRelations))
      val sizes = specs.map {
        case NodeSeeds(ids) => ids.size.toLong
        case AllNodeSeeds   => -1L
      }
      val concreteSizes = sizes.filter(_ >= 0)
      val balanced = opts.autoBalance > 0 && concreteSizes.nonEmpty &&
        (concreteSizes.max >= opts.autoBalance.toLong * math.max(1L, concreteSizes.min) ||
          sizes.contains(-1L))
      val cfg = configFor(ctp, opts, balanced)
      val ctx = new SearchContext(mem, specs, cfg)
      val t2 = System.nanoTime()
      val out = runAlgorithm(opts.algorithm, ctx)
      seedsMs += (t2 - t1) / 1e6
      searchMs += msSince(t2)
      traces += CtpTrace(ctp.treeVar, sizes, out.stats, out.results.size, balanced)
      (ctp, specs, out)
    }

    // (C) natural join of all relations, head projection, set semantics.
    val t3 = System.nanoTime()
    val ctpRelations = ctpRuns.map { case (ctp, specs, out) => ctpRelation(ctp, specs, out) }
    val result = naturalJoin(bgpRelations.map(_._2) ++ ctpRelations).project(query.head)
    val df = spark.createDataFrame(java.util.Arrays.asList(result.rows: _*), result.schema)
    EqlResult(df, traces.toSeq,
      SeqMap("bgp" -> bgpMs, "seeds" -> seedsMs, "search" -> searchMs, "tail" -> msSince(t3)))
  }
}
