package org.apache.spark

/** Lets the benchmark wait until every posted listener event has been
  * delivered, so a traced operation's Spark figures are complete when
  * they are read. `listenerBus` is package-private to Spark.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
