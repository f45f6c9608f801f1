package repro.core

import java.util.concurrent.{Callable, ExecutionException, ExecutorCompletionService, Executors}
import scala.collection.immutable.SeqMap
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

/** The answer of one EQL query.
  *
  * @param df      the result rows, a local relation: `collect` on it
  *                starts no Spark job
  * @param traces  one entry per CTP, in body order
  * @param phaseMs wall milliseconds per phase of [[EqlEvaluator.evaluate]],
  *                named as perfbench's layers: `bgp` (step A's wave of
  *                Spark collects), `seeds` (seed sets from the collected
  *                rows; on a graph's first query also its in-memory
  *                load), `search` (every CTP's search) and `tail` (CTP
  *                tables and step C)
  */
final case class EqlResult(df: DataFrame, traces: Seq[CtpTrace],
                           phaseMs: SeqMap[String, Double] = SeqMap.empty)

/** The paper's §3 evaluation strategy:
  * (A) evaluate each BGP into a bindings table (Spark SQL) and collect
  *     it to the driver, once per query, all BGPs at once;
  * (B) derive each CTP's seed sets from the collected bindings
  *     (Def. 2.10), then run the CTP algorithm with filters pushed down
  *     (§4.8) on the graph's in-memory copy, built once per graph (§5.1);
  * (C) natural-join the collected BGP rows and the CTP results on the
  *     driver and project the head.
  */
object EqlEvaluator {

  /** A driver-local relation: one BGP's collected bindings or one CTP's
    * results.
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
    seedsOf(
      bgpTables.collectFirst {
        case (b, table) if b.userVariables.contains(member.variable) =>
          table.select(col(member.variable)).distinct().collect().map(_.getLong(0))
      },
      Option.unless(member.isUnconstrained)(nodeIds(matchingNodes(g, member.conditions).collect())))

  /** The ids of the nodes that match all of (non-empty) `conditions`. */
  private def matchingNodes(g: PropertyGraph, conditions: Seq[Condition]): DataFrame =
    g.nodes
      .filter(conditions.map(c => BgpCompiler.condColumn(c, col("label"), col("ntype"))).reduce(_ && _))
      .select("id")

  private def nodeIds(rows: Array[Row]): Array[Long] = rows.map(_.getLong(0))

  /** The seed spec of a member from its BGP-bound values (`bound`, if a
    * BGP binds it) and the nodes matching its conditions (`matching`, if
    * it has any): their intersection, either one alone, or `N`. Ids are
    * distinct and sorted, so the order does not depend on Spark's
    * partitioning.
    */
  private def seedsOf(bound: Option[Array[Long]], matching: Option[Array[Long]]): SeedSpec = {
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

  /** Collects every DataFrame at once, each on its own thread, and
    * returns the rows in order. The pool's threads are created from the
    * calling thread, so they inherit its SparkContext local properties
    * (job group, scheduler pool, job tags): cancelling the caller's job
    * group cancels these jobs too. A single DataFrame is collected
    * inline. The first failure is rethrown here.
    */
  private def collectAll(dfs: Seq[DataFrame]): Seq[Array[Row]] =
    if (dfs.size <= 1) dfs.map(_.collect())
    else {
      val pool = Executors.newFixedThreadPool(dfs.size)
      try {
        val done = new ExecutorCompletionService[(Int, Array[Row])](pool)
        dfs.zipWithIndex.foreach { case (df, i) =>
          done.submit(new Callable[(Int, Array[Row])] { def call() = (i, df.collect()) })
        }
        val out = new Array[Array[Row]](dfs.size)
        dfs.indices.foreach { _ =>
          val (i, rows) = try done.take().get() catch { case e: ExecutionException => throw e.getCause }
          out(i) = rows
        }
        out.toSeq
      } finally pool.shutdownNow()
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
    * The query's Spark work is one concurrent wave of collects: every
    * BGP's bindings and, for each CTP member with conditions, the ids of
    * the matching nodes (besides the graph's in-memory copy, which the
    * first query on a graph loads). Everything after that runs on the
    * driver, and the result is a local relation.
    *
    * LIMIT and TOP-k apply to each CTP's own results, before step (C):
    * a CTP keeps its first (or k best) trees whether or not they join
    * with the rest of the body, so a query can come out empty although
    * other trees of the same CTP would have joined.
    */
  def evaluate(spark: SparkSession, g: PropertyGraph, query: EqlQuery,
               opts: EqlOptions = EqlOptions()): EqlResult = {
    // (A) BGP bindings and the nodes matching each member's conditions.
    val t0 = System.nanoTime()
    val conditions = query.ctps.flatMap(_.members).filterNot(_.isUnconstrained)
      .map(_.conditions).distinct
    val bgpDfs = query.bgps.map(b => BgpCompiler.compile(g, b))
    val collected = collectAll(bgpDfs ++ conditions.map(matchingNodes(g, _)))
    val bgpRelations = query.bgps.zip(bgpDfs.zip(collected)).map { case (b, (df, rows)) =>
      (b, Relation(df.schema, rows))
    }
    val matching = conditions.zip(collected.drop(bgpDfs.size).map(nodeIds)).toMap
    val bgpMs = msSince(t0)

    // (B) CTP evaluation with filters pushed down.
    var seedsMs, searchMs = 0.0
    val traces = collection.mutable.ArrayBuffer.empty[CtpTrace]
    val ctpRuns = query.ctps.map { ctp =>
      val t1 = System.nanoTime()
      val specs = ctp.members.map { m =>
        seedsOf(
          bgpRelations.collectFirst {
            case (b, r) if b.userVariables.contains(m.variable) =>
              val j = r.schema.fieldIndex(m.variable)
              r.rows.map(_.getLong(j))
          },
          matching.get(m.conditions))
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
