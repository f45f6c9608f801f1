package repro.core

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Records the Spark jobs that a block of code starts. `during` runs a
  * marker job before and after the block: the listener sees jobs in the
  * order they start, so once the second marker shows, every job the
  * block started has been seen. `close` removes the listener.
  */
final class JobLog(sc: SparkContext) extends SparkListener {
  private val started = new LinkedBlockingQueue[SparkListenerJobStart]
  private var markers = 0
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = started.put(e)

  /** Runs `f`; returns its value and the jobs it started, in order. */
  def during[A](f: => A): (A, Seq[SparkListenerJobStart]) = {
    untilMarker()
    val a = f
    (a, untilMarker())
  }

  def close(): Unit = sc.removeSparkListener(this)

  /** Runs a marker job and returns the jobs that started before it. */
  private def untilMarker(): Seq[SparkListenerJobStart] = {
    markers += 1
    val name = s"marker $markers"
    sc.parallelize(Seq(1), 1).setName(name).count()
    val jobs = Seq.newBuilder[SparkListenerJobStart]
    var e = started.poll(60, TimeUnit.SECONDS)
    while (e != null && !JobLog.rddNames(e).contains(name)) {
      jobs += e
      e = started.poll(60, TimeUnit.SECONDS)
    }
    if (e == null) throw new AssertionError(s"$name was not seen within 60 s")
    jobs.result()
  }
}

object JobLog {
  /** The names of the RDDs a job's stages read. */
  def rddNames(e: SparkListenerJobStart): Seq[String] =
    e.stageInfos.flatMap(_.rddInfos).map(_.name)
}
