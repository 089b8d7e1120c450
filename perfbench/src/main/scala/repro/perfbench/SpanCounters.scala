package repro.perfbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerDrain
import org.apache.spark.scheduler._

/** Spark's own counters for one span: jobs that succeeded, tasks that
  * succeeded, and over all tasks (cancelled ones too) executor run time
  * and shuffle bytes written. `emptyStages` counts
  * job stages with no tasks: adaptive execution met an empty shuffle, and
  * may then skip or run other stages depending on which finished first.
  */
final case class Counts(jobs: Long = 0, tasks: Long = 0, taskMs: Long = 0,
                        shuffleBytes: Long = 0, emptyStages: Long = 0) {
  def +(o: Counts): Counts =
    Counts(jobs + o.jobs, tasks + o.tasks, taskMs + o.taskMs,
           shuffleBytes + o.shuffleBytes, emptyStages + o.emptyStages)
}

/** Listener that attributes every job, and every task of its stages, to
  * the span that was open on the submitting thread. The span id travels as
  * a Spark local property, which Spark copies into each job's properties
  * (and into the threads Spark SQL spawns for a query). Jobs submitted with
  * no span open land under span 0.
  */
final class SpanCounters extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, java.lang.Long]()
  private val jobSpan = new ConcurrentHashMap[Int, java.lang.Long]()
  private val bySpan = new ConcurrentHashMap[Long, Counts]()

  private def add(span: Long, c: Counts): Unit =
    bySpan.merge(span, c, (a: Counts, b: Counts) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties)
      .flatMap(p => Option(p.getProperty(SpanCounters.Key)))
      .map(_.toLong).getOrElse(0L)
    e.stageIds.foreach(id => stageSpan.put(id, span))
    jobSpan.put(e.jobId, span)
    add(span, Counts(emptyStages = e.stageInfos.count(_.numTasks == 0).toLong))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val span: Long = Option(jobSpan.remove(e.jobId)).map(_.longValue).getOrElse(0L)
    if (e.jobResult == JobSucceeded) add(span, Counts(jobs = 1))
  }

  private def spanOfStage(stage: Int): Long =
    Option(stageSpan.get(stage)).map(_.longValue).getOrElse(0L)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = spanOfStage(e.stageId)
    val ok = if (e.reason == org.apache.spark.Success) 1L else 0L
    val m = e.taskMetrics
    val c =
      if (m == null) Counts(tasks = ok)
      else Counts(tasks = ok, taskMs = m.executorRunTime,
                  shuffleBytes = m.shuffleWriteMetrics.bytesWritten)
    add(span, c)
  }

  /** Counters attributed to `span` itself (not its children). */
  def of(span: Long): Counts = Option(bySpan.get(span)).getOrElse(Counts())
}

object SpanCounters {
  val Key = "perfbench.span"

  /** Wait until the listener bus has delivered everything posted so far. */
  def drain(sc: SparkContext): Unit = ListenerDrain(sc)
}
