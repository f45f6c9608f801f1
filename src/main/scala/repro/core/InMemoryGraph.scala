package repro.core

import scala.collection.mutable
import org.apache.spark.sql.Row

/** Compact in-memory adjacency view of a [[PropertyGraph]].
  *
  * The paper's CTP algorithms run over an in-memory graph ("we load the
  * graph in memory prior to evaluating CTPs", §5.1). Nodes and edges are
  * re-indexed to dense Ints; labels are interned to Ints; adjacency lists
  * hold incident edge indices in *both* directions (requirement R3:
  * traversal is bidirectional by default).
  *
  * @param nodeIds external node ids, indexed by dense node index
  * @param esrc    dense source node index per edge index
  * @param edst    dense target node index per edge index
  * @param elabel  interned label id per edge index
  * @param labels  label dictionary (interned id -> label string)
  * @param edgeIds external edge ids, indexed by dense edge index
  * @param adj     per node index: incident edge indices (out- and in-edges)
  */
final class InMemoryGraph(
    val nodeIds: Array[Long],
    val esrc: Array[Int],
    val edst: Array[Int],
    val elabel: Array[Int],
    val labels: Array[String],
    val edgeIds: Array[Long],
    val adj: Array[Array[Int]],
) {
  val numNodes: Int = nodeIds.length
  val numEdges: Int = esrc.length

  private lazy val nodeIndexById: java.util.HashMap[Long, Integer] = {
    val m = new java.util.HashMap[Long, Integer](numNodes * 2)
    var i = 0
    while (i < numNodes) { m.put(nodeIds(i), i); i += 1 }
    m
  }

  private lazy val labelIdByName: Map[String, Int] =
    labels.zipWithIndex.toMap

  /** Dense index for an external node id; -1 when absent. */
  def nodeIndex(id: Long): Int = {
    val v = nodeIndexById.get(id)
    if (v eq null) -1 else v.intValue()
  }

  /** Interned id for a label string; -1 when the label never occurs. */
  def labelId(name: String): Int = labelIdByName.getOrElse(name, -1)

  /** Undirected degree of node `n` (number of incident edges). */
  def degree(n: Int): Int = adj(n).length

  /** The endpoint of edge `e` opposite to node `n`. */
  def other(e: Int, n: Int): Int = if (esrc(e) == n) edst(e) else esrc(e)
}

object InMemoryGraph {

  /** Collects a [[PropertyGraph]]'s edges (and node set) to the driver
    * and builds the compact adjacency. Node rows are taken from the
    * edges' endpoints plus the nodes DataFrame (isolated nodes kept).
    * [[PropertyGraph.inMemory]] keeps the result for later queries.
    */
  def fromPropertyGraph(g: PropertyGraph): InMemoryGraph = {
    val nodeRows = g.nodes.select("id").collect().map(_.getLong(0))
    val edgeRows = g.edges.select("id", "src", "label", "dst").collect()
    fromRows(nodeRows, edgeRows)
  }

  /** Builds directly from plain seqs (tests, generators). */
  def fromSeqs(ns: Seq[Long], es: Seq[GEdge]): InMemoryGraph =
    fromRows(ns.toArray,
      es.map(e => Row(e.id, e.src, e.label, e.dst)).toArray)

  private def fromRows(nodeIdsIn: Array[Long], edgeRows: Array[Row]): InMemoryGraph = {
    val nodeIdSet = mutable.LinkedHashSet.empty[Long]
    nodeIdsIn.foreach(nodeIdSet += _)
    edgeRows.foreach { r => nodeIdSet += r.getLong(1); nodeIdSet += r.getLong(3) }
    val nodeIds = nodeIdSet.toArray
    val index = new java.util.HashMap[Long, Integer](nodeIds.length * 2)
    nodeIds.zipWithIndex.foreach { case (id, i) => index.put(id, i) }

    val labelDict = mutable.LinkedHashMap.empty[String, Int]
    def intern(s: String): Int = labelDict.getOrElseUpdate(s, labelDict.size)

    val n = edgeRows.length
    val esrc = new Array[Int](n); val edst = new Array[Int](n)
    val elabel = new Array[Int](n); val eids = new Array[Long](n)
    val adjB = Array.fill(nodeIds.length)(mutable.ArrayBuffer.empty[Int])
    var j = 0
    while (j < n) {
      val r = edgeRows(j)
      esrc(j) = index.get(r.getLong(1)).intValue()
      edst(j) = index.get(r.getLong(3)).intValue()
      elabel(j) = intern(r.getString(2))
      eids(j) = r.getLong(0)
      adjB(esrc(j)) += j
      if (edst(j) != esrc(j)) adjB(edst(j)) += j
      j += 1
    }
    new InMemoryGraph(nodeIds, esrc, edst, elabel,
      labelDict.keys.toArray, eids, adjB.map(_.toArray).toArray)
  }
}
