package repro.core

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import org.scalatest.funsuite.AnyFunSuite

class InMemoryGraphSpec extends AnyFunSuite {

  private val g = InMemoryGraph.fromSeqs(
    Seq(10L, 20L, 30L, 40L, 99L), // 99 is isolated
    Seq(GEdge(0, 10, "a", 20), GEdge(1, 20, "b", 30), GEdge(2, 30, "a", 10),
      GEdge(3, 30, "c", 40)))

  test("dense reindexing round-trips external ids") {
    assert(g.numNodes == 5)
    assert(g.numEdges == 4)
    (Seq(10L, 20L, 30L, 40L, 99L)).foreach { id =>
      assert(g.nodeIds(g.nodeIndex(id)) == id)
    }
    assert(g.nodeIndex(12345L) == -1)
  }

  test("labels are interned and resolvable") {
    assert(g.labels.toSet == Set("a", "b", "c"))
    assert(g.labelId("a") >= 0)
    assert(g.labelId("zzz") == -1)
    assert(g.elabel(0) == g.elabel(2)) // both "a"
  }

  test("adjacency is bidirectional; degree counts incident edges") {
    val n30 = g.nodeIndex(30L)
    assert(g.degree(n30) == 3) // edges 1, 2, 3
    assert(g.degree(g.nodeIndex(99L)) == 0)
    val n10 = g.nodeIndex(10L)
    assert(g.adj(n10).toSet == Set(0, 2))
  }

  test("other() returns the opposite endpoint") {
    val n10 = g.nodeIndex(10L); val n20 = g.nodeIndex(20L)
    assert(g.other(0, n10) == n20)
    assert(g.other(0, n20) == n10)
  }

  test("self-loops are indexed once in adjacency") {
    val loop = InMemoryGraph.fromSeqs(Seq(1L), Seq(GEdge(0, 1, "l", 1)))
    assert(loop.degree(loop.nodeIndex(1L)) == 1)
  }

  test("fromPropertyGraph matches fromSeqs") {
    val spark = repro.SparkSpec.shared
    val pg = PropertyGraph.fromSeqs(spark,
      Seq(GNode(10, "x", ""), GNode(20, "y", ""), GNode(30, "z", ""),
        GNode(40, "w", ""), GNode(99, "iso", "")),
      Seq(GEdge(0, 10, "a", 20), GEdge(1, 20, "b", 30), GEdge(2, 30, "a", 10),
        GEdge(3, 30, "c", 40)))
    val g2 = InMemoryGraph.fromPropertyGraph(pg)
    assert(g2.numNodes == g.numNodes)
    assert(g2.numEdges == g.numEdges)
    assert(g2.nodeIds.sorted.toSeq == g.nodeIds.sorted.toSeq)
  }

  /** Counts Spark jobs that read an RDD named `table`. Each `mark` runs a
    * marker job and returns the count up to it: the listener sees jobs in
    * the order they start, so the count is complete once the marker shows.
    */
  private final class JobCounter(table: String) extends SparkListener {
    private var jobs = 0
    private val marks = new LinkedBlockingQueue[(String, Int)]
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val names = e.stageInfos.flatMap(_.rddInfos).map(_.name)
      if (names.contains(table)) jobs += 1
      names.find(_.startsWith("marker ")).foreach(m => marks.put(m -> jobs))
    }
    def mark(sc: org.apache.spark.SparkContext, name: String): Int = {
      sc.parallelize(Seq(1), 1).setName(s"marker $name").count()
      val seen = marks.poll(60, TimeUnit.SECONDS)
      assert(seen != null && seen._1 == s"marker $name")
      seen._2
    }
  }

  test("PropertyGraph.inMemory is built once: a second query reads no edge table") {
    val spark = repro.SparkSpec.shared
    val sc = spark.sparkContext
    val edgeRdd = sc.parallelize(SampleGraph.edges.map(e => Row(e.id, e.src, e.label, e.dst)), 2)
      .setName("edge table")
    val edges = spark.createDataFrame(edgeRdd, StructType(Seq(StructField("id", LongType),
      StructField("src", LongType), StructField("label", StringType), StructField("dst", LongType))))
    val pg = PropertyGraph(SampleGraph.pg(spark).nodes, edges)
    val q = EqlParser.parse("""(w) :- ("Carl", "Eva", *w)""")
    val counter = new JobCounter("edge table")
    sc.addSparkListener(counter)
    try {
      val c0 = counter.mark(sc, "start")
      val first = EqlEvaluator.evaluate(spark, pg, q).df.collect().toSet
      val c1 = counter.mark(sc, "first")
      val second = EqlEvaluator.evaluate(spark, pg, q).df.collect().toSet
      val c2 = counter.mark(sc, "second")
      assert(c1 > c0) // the first query builds the graph from the edge table
      assert(c2 == c1)
      assert(second == first && first.nonEmpty)
      assert(pg.inMemory eq pg.inMemory)
    } finally sc.removeSparkListener(counter)
  }
}
