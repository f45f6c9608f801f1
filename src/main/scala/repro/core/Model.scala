package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A graph node, per Def. 2.1 of the paper.
  *
  * @param id       unique node id
  * @param label    node label `l(n)`; literal labels are plain strings,
  *                 the empty label is `""`
  * @param ntype    node type `τ(n)` ("" when untyped) — the one extra
  *                 property the paper's examples use beyond the label
  */
final case class GNode(id: Long, label: String, ntype: String = "")

/** A labeled directed edge, per Def. 2.1 (multi-edges allowed — edges
  * carry their own ids, mirroring the paper's `graph(id, source,
  * edgeLabel, target)` relational encoding).
  */
final case class GEdge(id: Long, src: Long, label: String, dst: Long)

/** A graph held as two Spark DataFrames — the relational substrate the
  * paper keeps in PostgreSQL, here kept in Spark SQL. EQL evaluation
  * reads them once, into [[inMemory]]; both step (A)'s BGP matcher and
  * the CTP search run on that copy.
  *
  * Schema: `nodes(id BIGINT, label STRING, ntype STRING)`,
  * `edges(id BIGINT, src BIGINT, label STRING, dst BIGINT)`.
  */
final case class PropertyGraph(nodes: DataFrame, edges: DataFrame) {

  /** Number of nodes (runs a Spark count). */
  def numNodes: Long = nodes.count()

  /** Number of edges (runs a Spark count). */
  def numEdges: Long = edges.count()

  /** The graph loaded into memory (§5.1), with each node's label and
    * type, built on first use and then kept for every later query on
    * this graph.
    */
  lazy val inMemory: InMemoryGraph = InMemoryGraph.fromPropertyGraph(this)

  /** Caches both DataFrames (benchmarks call this before timing). */
  def cached(): PropertyGraph = {
    nodes.cache(); edges.cache()
    PropertyGraph(nodes, edges)
  }
}

object PropertyGraph {
  /** Builds a PropertyGraph from in-memory node/edge seqs (tests). */
  def fromSeqs(spark: SparkSession, ns: Seq[GNode], es: Seq[GEdge]): PropertyGraph = {
    import spark.implicits._
    PropertyGraph(
      ns.toDF("id", "label", "ntype"),
      es.toDF("id", "src", "label", "dst"),
    )
  }
}
