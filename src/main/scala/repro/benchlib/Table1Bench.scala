package repro.benchlib

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.gen.GraphGen
import repro.pathbase.PathEngines

/** Table 1: the three JEDI-style queries (J1: 3 BGPs + 2 CTPs; J2: one
  * very large seed set; J3: an N seed set) on the YAGO3 substitute,
  * comparing our EQL engine with the JEDI-like path enumerator, the
  * Virtuoso-like reachability checker and the Neo4j-like undirected
  * enumerator. All CTPs are UNI + LABEL-constrained, like JEDI's
  * property-path queries.
  */
object Table1Bench {

  final case class Row(query: String, system: String, ms: Double, rows: Long,
                       note: String = "")

  private val ctpLabels = Set("p0", "p1", "p2")
  private val labelList = """LABEL("p0","p1","p2")"""

  def run(spark: SparkSession, numNodes: Int = 10000, extraEdges: Int = 20000,
          timeoutMs: Long = 60000L): Seq[Row] = {
    val pg = GraphGen.kgraph(numNodes, extraEdges, seed = 13).toPropertyGraph(spark).cached()
    pg.numEdges // force cache
    val rows = collection.mutable.ArrayBuffer.empty[Row]
    def record(query: String, system: String, note: String = "")(f: => Long): Unit = {
      val (n, ms) = Bench.time(f)
      rows += Row(query, system, ms, n, note)
    }
    val opts = EqlOptions(defaultTimeoutMs = timeoutMs)

    // ---- J1: 3 BGPs, 2 CTPs ------------------------------------------
    // Seeds are narrowed (type + label prefix) to keep the join result
    // selective, like the paper's hand-picked YAGO3 queries.
    val j1 = EqlParser.parse(
      s"""(x, y, z, w1, w2) :-
         |  (type(x)="t1" & label(x)~"e2*", "p0", a),
         |  (type(y)="t2" & label(y)~"e3*", "p1", b),
         |  (type(z)="t3" & label(z)~"e4*", "p0", c),
         |  (x, y, *w1) [UNI, $labelList, MAX 3],
         |  (y, z, *w2) [UNI, $labelList, MAX 3]""".stripMargin)
    record("J1", "EQL-MoLESP") {
      EqlEvaluator.evaluate(spark, pg, j1, opts).df.collect().length.toLong
    }
    // Path-engine baselines need the same seed tables.
    def seedsOf(tpe: String, lblPrefix: String, edgeLbl: String): DataFrame =
      pg.edges.filter(col("label") === edgeLbl)
        .join(pg.nodes.filter(col("ntype") === tpe &&
          col("label").like(lblPrefix + "%")), pg.edges("src") === pg.nodes("id"))
        .select(col("src") as "id").distinct()
    val sx = seedsOf("t1", "e2", "p0")
    val sy = seedsOf("t2", "e3", "p1")
    val sz = seedsOf("t3", "e4", "p0")
    record("J1", "JediLike(paths+join)") {
      val p1 = PathEngines.enumeratePaths(spark, pg.edges,
        sx.select(col("id") as "start"), sy.select(col("id") as "end"), 3,
        labels = Some(ctpLabels))
      val p2 = PathEngines.enumeratePaths(spark, pg.edges,
        sy.select(col("id") as "start"), sz.select(col("id") as "end"), 3,
        labels = Some(ctpLabels))
      p1.join(p2, p1("end") === p2("start")).count()
    }
    record("J1", "VirtLike(reach)") {
      val r1 = PathEngines.reachablePairs(spark, pg.edges,
        sx.select(col("id") as "start"), sy.select(col("id") as "end"), 3,
        labels = Some(ctpLabels))
      val r2 = PathEngines.reachablePairs(spark, pg.edges,
        sy.select(col("id") as "start"), sz.select(col("id") as "end"), 3,
        labels = Some(ctpLabels))
      r1.join(r2, r1("end") === r2("start")).count()
    }

    // ---- J2: 2 BGPs, 1 CTP, very large seed set ----------------------
    val j2 = EqlParser.parse(
      s"""(x, y, w) :- (type(x)="t0", "p0", a), (label(y)~"e71*", yl, b),
         |  (x, y, *w) [UNI, $labelList, MAX 3]""".stripMargin)
    record("J2", "EQL-MoLESP (balanced §4.9)") {
      EqlEvaluator.evaluate(spark, pg, j2, opts).df.collect().length.toLong
    }
    record("J2", "EQL-MoLESP (no balancing)", note = "§4.9 off") {
      EqlEvaluator.evaluate(spark, pg, j2, opts.copy(autoBalance = 0)).df.collect().length.toLong
    }
    val s2x = seedsOf("t0", "e", "p0")
    val j2Targets = pg.nodes.filter(col("label").like("e71%")).select(col("id") as "end")
    record("J2", "JediLike(paths)") {
      PathEngines.enumeratePaths(spark, pg.edges,
        s2x.select(col("id") as "start"), j2Targets, 3,
        labels = Some(ctpLabels)).count()
    }
    record("J2", "VirtLike(reach)") {
      PathEngines.reachablePairs(spark, pg.edges,
        s2x.select(col("id") as "start"), j2Targets, 3,
        labels = Some(ctpLabels)).count()
    }

    // ---- J3: 1 CTP with an N seed set --------------------------------
    val j3 = EqlParser.parse(
      s"""(l) :- (label(s)="e3", n, *l) [UNI, $labelList, MAX 3]""")
    record("J3", "EQL-MoLESP (N set, §4.9)") {
      EqlEvaluator.evaluate(spark, pg, j3, opts).df.collect().length.toLong
    }
    record("J3", "JediLike(paths to anywhere)") {
      PathEngines.enumeratePaths(spark, pg.edges,
        pg.nodes.filter(col("label") === "e3").select(col("id") as "start"),
        pg.nodes.select(col("id") as "end"), 3, labels = Some(ctpLabels)).count()
    }
    record("J3", "NeoLike(undirected paths)") {
      PathEngines.enumeratePaths(spark, pg.edges,
        pg.nodes.filter(col("label") === "e3").select(col("id") as "start"),
        pg.nodes.select(col("id") as "end"), 3, labels = Some(ctpLabels),
        undirected = true).count()
    }
    pg.nodes.unpersist(); pg.edges.unpersist()
    rows.toSeq
  }

  def render(rows: Seq[Row]): String =
    Bench.table("Table 1 — J1/J2/J3 on the YAGO3 substitute",
      Seq("query", "system", "ms", "rows", "note"),
      rows.map(r => Seq(r.query, r.system, r.ms, r.rows, r.note)))
}
