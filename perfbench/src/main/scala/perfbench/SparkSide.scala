package perfbench

import scala.collection.mutable
import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel

/** The benchmark's Spark session: local mode with at most four task
  * threads (never more than the machine's cores), a fixed number of
  * shuffle partitions, broadcast joins off as in the project's own
  * sessions, and scratch space inside `localDir`.
  */
object SparkSide {
  def session(localDir: String): SparkSession = {
    val threads = math.min(4, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** True when `df`'s plan is already in Spark's cache. */
  def isCached(df: DataFrame): Boolean = df.storageLevel != StorageLevel.NONE
}

/** Attributes Spark jobs, tasks, shuffle output and executor time to the
  * layer named by the `perfbench.layer` local property of the thread
  * that started the job, and to the job's call site (the stage name,
  * e.g. `count at EqlEvaluator.scala:131`).
  */
final class LayerListener extends SparkListener {
  final class Counters {
    var jobs = 0L; var tasks = 0L; var runMs = 0L
    var shuffleBytes = 0L; var shuffleRecords = 0L
  }
  val byLayer = mutable.LinkedHashMap.empty[String, Counters]
  val bySite = mutable.LinkedHashMap.empty[String, Counters]
  private val stageKeys = mutable.HashMap.empty[Int, (String, String)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val layer = Option(e.properties).flatMap(p => Option(p.getProperty(LayerListener.Key)))
      .getOrElse("untagged")
    val site = e.stageInfos.sortBy(_.stageId).lastOption.map(_.name).getOrElse("?")
    e.stageIds.foreach(id => stageKeys(id) = (layer, site))
    Seq(byLayer.getOrElseUpdate(layer, new Counters),
        bySite.getOrElseUpdate(site, new Counters)).foreach(_.jobs += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageKeys.get(e.stageId).foreach { case (layer, site) =>
      Seq(byLayer.getOrElseUpdate(layer, new Counters),
          bySite.getOrElseUpdate(site, new Counters)).foreach { c =>
        c.tasks += 1
        Option(e.taskMetrics).foreach { m =>
          c.runMs += m.executorRunTime
          c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
          c.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
        }
      }
    }
  }

  def reset(): Unit = synchronized { byLayer.clear() }

  /** Spark work of the whole run by call site, as a table for stderr. */
  def report(): String = synchronized {
    val rows = bySite.toSeq.sortBy(-_._2.runMs).map { case (site, c) =>
      f"${c.jobs}%7d ${c.tasks}%7d ${c.runMs}%9d ${c.shuffleRecords}%10d  $site"
    }
    ("[perfbench] spark work by call site:\n   jobs   tasks    run_ms  shuf_recs  site\n" +
      rows.mkString("\n") + "\n")
  }
}

object LayerListener {
  val Key = "perfbench.layer"

  /** Runs `f` with Spark jobs tagged as `layer`. */
  def tagged[A](spark: SparkSession, layer: String)(f: => A): A = {
    val sc = spark.sparkContext
    sc.setLocalProperty(Key, layer)
    try f finally sc.setLocalProperty(Key, null)
  }

  def drain(spark: SparkSession): Unit = PerfbenchBus.drain(spark.sparkContext)
}
