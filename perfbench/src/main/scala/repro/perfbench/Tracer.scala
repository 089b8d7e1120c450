package repro.perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext

/** One timed interval: a call of a layer, or a whole system call. `call`
  * groups the spans of one system call; times are `System.nanoTime`;
  * `gcMs` is the JVM's garbage-collection time inside the interval (in
  * local mode the executors share the driver's JVM).
  */
final case class Span(id: Long, name: String, parent: Long, call: Long,
                      startNs: Long, endNs: Long, gcMs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory on the driver thread, tags Spark jobs with the
  * innermost open span, and writes the spans out when asked.
  */
final class Tracer(sc: SparkContext, val counters: SpanCounters) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Long] = Nil
  private var nextId = 1L

  def spans: Seq[Span] = done.toSeq

  /** Runs `f` inside a new span below the innermost open one. */
  def span[A](name: String, call: Long)(f: => A): (A, Span) = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(0L)
    open = id :: open
    sc.setLocalProperty(SpanCounters.Key, id.toString)
    val gc0 = Tracer.gcMillis()
    val t0 = System.nanoTime()
    try {
      val a = f
      (a, close(id, name, parent, call, t0, gc0))
    } catch {
      case e: Throwable => close(id, name, parent, call, t0, gc0); throw e
    }
  }

  private def close(id: Long, name: String, parent: Long, call: Long, t0: Long, gc0: Long): Span = {
    val s = Span(id, name, parent, call, t0, System.nanoTime(), Tracer.gcMillis() - gc0)
    open = open.tail
    sc.setLocalProperty(SpanCounters.Key, open.headOption.map(_.toString).orNull)
    done += s
    s
  }

  /** Counters of `s` and of every span below it. */
  def inclusive(s: Span): Counts =
    Tracer.descendants(spans, s).foldLeft(counters.of(s.id))((acc, c) => acc + counters.of(c.id))

  def selfSeconds(s: Span): Double = Tracer.selfSeconds(s, spans)

  /** One JSON object per line: the span and its own counters. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      val c = counters.of(s.id)
      w.println(
        s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"call":${s.call},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"jobs":${c.jobs},"tasks":${c.tasks},""" +
        s""""task_ms":${c.taskMs},"gc_ms":${s.gcMs},"shuffle_bytes":${c.shuffleBytes}}""")
    } finally w.close()
  }
}

object Tracer {

  def gcMillis(): Long =
    java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.asScala
      .map(_.getCollectionTime).filter(_ > 0).sum

  def descendants(all: Seq[Span], s: Span): Seq[Span] = {
    val kids = all.filter(_.parent == s.id)
    kids ++ kids.flatMap(descendants(all, _))
  }

  /** A span's duration minus the part of it its direct children cover. */
  def selfSeconds(s: Span, all: Seq[Span]): Double = {
    val kids = all.filter(_.parent == s.id)
      .map(k => (math.max(k.startNs, s.startNs), math.min(k.endNs, s.endNs)))
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var covered = 0L
    var reach = s.startNs
    kids.foreach { case (a, b) =>
      val from = math.max(a, reach)
      if (b > from) { covered += b - from; reach = b }
    }
    (s.endNs - s.startNs - covered) / 1e9
  }
}
