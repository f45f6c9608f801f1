package repro.benchlib

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.gen.GraphGen
import repro.pathbase.PathEngines

/** Figures 13/14: EQL evaluation on CDF graphs vs the path-engine
  * baselines. System mapping (see DESIGN.md):
  *
  *  - Virtuoso-SPARQL  → `VirtLike`  : label-constrained directed
  *    reachability (checks pairs, returns no paths)
  *  - Virtuoso-SQL     → `VirtSqlLike`: same without label constraints
  *  - Postgres         → `PgLike`    : directed label-constrained simple
  *    path enumeration (recursive-CTE analogue)
  *  - JEDI             → `JediLike`  : directed unconstrained path
  *    enumeration returning full node/edge paths
  *  - Neo4j            → `NeoLike`   : undirected unconstrained path
  *    enumeration (explodes; only run on the smallest configs)
  *  - UNI-MoLESP / MoLESP: our EQL evaluator (§3) end to end
  *
  * For m=3 the path engines use path stitching on the common root (§2).
  */
object CdfBench {

  final case class Row(m: Int, sL: Int, nT: Int, nL: Int, edges: Long,
                       system: String, ms: Double, rows: Long)

  final case class Config(nT: Int, nL: Int)

  def defaultGrid: Seq[Config] = Seq(
    Config(250, 500), Config(500, 1000), Config(1000, 2000), Config(2000, 4000))

  private def queryFor(m: Int, uni: Boolean): EqlQuery = {
    val f = if (uni) " [UNI]" else ""
    if (m == 2)
      EqlParser.parse(s"""(v, tl, l) :- (x, "c", tl), (v, "g", bl), (bl, tl, *l)$f""")
    else
      EqlParser.parse(
        s"""(tl, l) :- (x, "c", tl), (v, "g", bl1), (v, "h", bl2), (tl, bl1, bl2, *l)$f""")
  }

  /** Seed tables for the path baselines: top "c"-leaves and bottom
    * "g"/"h" leaves, derived relationally like the query's BGPs.
    */
  private def leafTables(pg: PropertyGraph): (DataFrame, DataFrame, DataFrame) = {
    val top = pg.edges.filter(col("label") === "c").select(col("dst") as "start").distinct()
    val g = pg.edges.filter(col("label") === "g").select(col("dst") as "end").distinct()
    val h = pg.edges.filter(col("label") === "h").select(col("dst") as "end").distinct()
    (top, g, h)
  }

  /** Runs one m ∈ {2,3} sweep; `neoMaxEdges` caps the graph size on
    * which the undirected enumerator is attempted (paper: Neo4j timed
    * out everywhere).
    */
  def run(spark: SparkSession, m: Int, sLs: Seq[Int] = Seq(3, 6),
          grid: Seq[Config] = defaultGrid, neoMaxEdges: Long = 20000L): Seq[Row] = {
    val rows = collection.mutable.ArrayBuffer.empty[Row]
    for (sL <- sLs; c <- grid) {
      val (gen, _) = GraphGen.cdf(m, c.nT, c.nL, sL, seed = 17)
      val pg = gen.toPropertyGraph(spark).cached()
      val edges = pg.numEdges
      val (top, gLeaves, hLeaves) = leafTables(pg)
      val maxLen = sL // links are sL edges long

      def record(system: String)(f: => Long): Unit = {
        val (n, ms) = Bench.time(f)
        rows += Row(m, sL, c.nT, c.nL, edges, system, ms, n)
      }

      record("VirtLike(reach,label)") {
        PathEngines.reachablePairs(spark, pg.edges, top, gLeaves, maxLen,
          labels = Some(Set("x"))).count()
      }
      record("VirtSqlLike(reach)") {
        PathEngines.reachablePairs(spark, pg.edges, top, gLeaves, maxLen).count()
      }
      if (m == 2) {
        record("PgLike(paths,label)") {
          PathEngines.enumeratePaths(spark, pg.edges, top, gLeaves, maxLen,
            labels = Some(Set("x"))).count()
        }
        record("JediLike(paths)") {
          PathEngines.enumeratePaths(spark, pg.edges, top, gLeaves, maxLen).count()
        }
        if (edges <= neoMaxEdges) record("NeoLike(undirected)") {
          PathEngines.enumeratePaths(spark, pg.edges, top, gLeaves, maxLen,
            undirected = true).count()
        }
      } else {
        record("PgLike(stitch,label)") {
          PathEngines.stitchTrees(spark, pg.edges, top, gLeaves, hLeaves, maxLen,
            labels = Some(Set("x"))).count()
        }
        record("JediLike(stitch)") {
          PathEngines.stitchTrees(spark, pg.edges, top, gLeaves, hLeaves, maxLen).count()
        }
      }
      record("UNI-MoLESP(EQL)") {
        EqlEvaluator.evaluate(spark, pg, queryFor(m, uni = true)).df.collect().length.toLong
      }
      record("MoLESP(EQL)") {
        EqlEvaluator.evaluate(spark, pg, queryFor(m, uni = false)).df.collect().length.toLong
      }
      pg.nodes.unpersist(); pg.edges.unpersist()
    }
    rows.toSeq
  }

  def render(m: Int, rows: Seq[Row]): String =
    Bench.table(s"Fig. ${if (m == 2) 13 else 14} — CDF benchmark, m=$m",
      Seq("m", "S_L", "N_T", "N_L", "edges", "system", "ms", "rows"),
      rows.map(r => Seq(r.m, r.sL, r.nT, r.nL, r.edges, r.system, r.ms, r.rows)))
}
