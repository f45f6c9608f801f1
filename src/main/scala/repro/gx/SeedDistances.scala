package repro.gx

import org.apache.spark.sql.SparkSession
import repro.core.{InMemoryGraph, PropertyGraph}

/** No prune runs before a CTP search: the search enforces MAX itself
  * (§4.8), so every CTP searches the whole in-memory graph.
  */
object SeedDistances {

  /** Returns `g` unchanged. It exists only because perfbench's traced
    * layer pass calls it, and goes with the next change to the benchmark.
    */
  def pruneForCtp(spark: SparkSession, pg: PropertyGraph, g: InMemoryGraph,
                  seedSets: Seq[Seq[Long]], maxEdges: Int): InMemoryGraph = g
}
