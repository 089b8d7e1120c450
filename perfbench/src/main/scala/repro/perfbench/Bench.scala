package repro.perfbench

import java.security.MessageDigest

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.cleaning.{BaranLike, BaranMemoryError, BaranTimeoutError, HoloCleanLike}
import repro.core._
import repro.data.{SpatialDataset, SpatialSynth}
import repro.eval.{Metrics, Runner}
import repro.jobs.Jobs

/** What one system call returned: its repairs, or one of Baran's modelled
  * aborts (an expected outcome, not a failure).
  */
sealed trait Outcome
final case class Repaired(rows: Seq[(Long, String, String)]) extends Outcome
final case class Aborted(marker: String) extends Outcome

object Outcome {
  def of(repairs: DataFrame): Repaired =
    Repaired(repairs.collect().toSeq
      .map(r => (r.getAs[Long]("id"), r.getAs[String]("oldValue"), r.getAs[String]("newValue"))))

  /** Order-independent fingerprint of a call's output. */
  def digest(o: Outcome): String = o match {
    case Aborted(m) => m
    case Repaired(rows) =>
      val md = MessageDigest.getInstance("SHA-1")
      rows.sortBy(_._1).foreach { case (id, o, n) => md.update(s"$id\t$o\t$n\n".getBytes("UTF-8")) }
      md.digest().map(b => f"$b%02x").mkString
  }
}

/** One timed call: `seconds` covers the call and the collection of its
  * repairs; `counts` are the Spark counters of its span and the spans below
  * it; `leakedMb` is the storage still held after it returned and a full GC.
  */
final case class CallRecord(pass: Int, name: String, cleaner: Cleaner, seconds: Double,
                            counts: Counts, leakedMb: Double, outcome: Outcome,
                            failure: Option[String]) {
  lazy val digest: String = Outcome.digest(outcome)
}

/** A live session on one workload's inputs. */
final class Session(val spark: SparkSession, val tracer: Tracer, val ds: SpatialDataset) {
  def sc = spark.sparkContext
  def stop(): Unit = {
    ds.records.unpersist(); ds.truth.unpersist()
    spark.stop()
  }
}

object Session {

  /** Session start, dataset generation and input caching, as a user of the
    * program pays them. Returns the session, the whole set-up time and the
    * generation time alone.
    */
  def start(cfg: Config): (Session, Double, Double) = {
    val t0 = System.nanoTime()
    val spark = Jobs.session("perfbench")
    val counters = new SpanCounters
    spark.sparkContext.addSparkListener(counters)
    val t1 = System.nanoTime()
    val ds = SpatialSynth.generate(cfg.workload.spec(cfg.seed, cfg.scale))(spark)
    val t2 = System.nanoTime()
    ds.records.persist(); ds.truth.persist()
    ds.records.count(); ds.truth.count()
    val t3 = System.nanoTime()
    (new Session(spark, new Tracer(spark.sparkContext, counters), ds), (t3 - t0) / 1e9, (t2 - t1) / 1e9)
  }
}

/** Runs a workload's calls on a session: cache hygiene before every call,
  * span and counters around it, output fingerprint after it.
  */
final class Bench(val cfg: Config, val s: Session) {
  import Cleaner._

  private val w = cfg.workload
  val points: DataFrame = s.ds.points(w.attr)
  val truth: DataFrame = s.ds.truthFor(w.attr)
  private var calls = 0L

  /** Id of the call running now (or last run); spans of one call share it. */
  def currentCall: Long = calls

  /** Sparcle on the workload's range constraint with weight exponent `n`. */
  def sparcle(n: Double): SparcleParams = SparcleParams(SpatialRange(w.d, PowerWeight(n)))

  /** Drop every cached frame and RDD, re-cache the inputs and collect
    * garbage, so the next call finds nothing a previous one left behind.
    */
  def hygiene(): Unit = {
    s.spark.catalog.clearCache()
    s.sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    s.ds.records.persist(); s.ds.truth.persist()
    s.ds.records.count(); s.ds.truth.count()
    System.gc()
  }

  def storageMb(): Double =
    s.sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1048576.0

  /** The public entry point of `cleaner` on the workload's attribute. */
  def run(cleaner: Cleaner, pts: DataFrame = points, tru: DataFrame = truth): Outcome = cleaner match {
    case SparcleN2 => Outcome.of(Sparcle.clean(pts, sparcle(2)).repairs)
    case SparcleN0 => Outcome.of(Sparcle.clean(pts, sparcle(0)).repairs)
    case Holo => Outcome.of(HoloCleanLike.clean(pts).repairs)
    case Baran =>
      try Outcome.of(BaranLike.clean(pts, tru))
      catch {
        case _: BaranTimeoutError => Aborted(Runner.TimeoutMarker)
        case _: BaranMemoryError => Aborted(Runner.MemMarker)
      }
  }

  /** One call in its own span, after cache hygiene. */
  def call(pass: Int, name: String, cleaner: Cleaner)(body: => Outcome): CallRecord = {
    hygiene()
    val leftover = s.sc.getPersistentRDDs.size - 2
    val base = storageMb()
    calls += 1
    val t0 = System.nanoTime()
    val (outcome, failure, span) =
      try {
        val (o, sp) = s.tracer.span(name, calls)(body)
        (o, None, Some(sp))
      } catch {
        case NonFatal(e) => (Aborted("exception"), Some(s"$name: ${e.getClass.getName}: ${e.getMessage}"), None)
      }
    val seconds = span.map(_.seconds).getOrElse((System.nanoTime() - t0) / 1e9)
    SpanCounters.drain(s.sc)
    val counts = span.map(s.tracer.inclusive).getOrElse(Counts())
    System.gc()
    val hygieneFailure =
      if (leftover == 0) None else Some(s"$name: $leftover cached RDDs beside the inputs survived hygiene")
    CallRecord(pass, name, cleaner, seconds, counts, storageMb() - base, outcome,
               failure.orElse(hygieneFailure))
  }

  def pass(i: Int): Seq[CallRecord] = w.systems.map(c => call(i, c.key, c)(run(c)))

  /** Paper-style Overall F1 (`Metrics.overall`) of one system's repairs,
    * given per attribute.
    */
  def f1(byAttr: Map[String, Seq[(Long, String, String)]]): Double =
    Metrics.overall(s.ds.records, s.ds.truth, byAttr.map { case (a, r) => a -> repairsFrame(r) }).f1

  private val RepairSchema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("oldValue", StringType, nullable = true),
    StructField("newValue", StringType, nullable = true)))

  def repairsFrame(rows: Seq[(Long, String, String)]): DataFrame =
    s.spark.createDataFrame(
      s.sc.parallelize(rows.map { case (i, o, n) => Row(i, o, n) }, 4), RepairSchema)
}

/** The traced Sparcle call: each stage function in `Sparcle.clean`'s order,
  * persisted and counted exactly where `Sparcle.clean` does, each in its own
  * span. The frames stay cached (as `Sparcle.clean` leaves them), so the
  * row counts taken afterwards are cheap and outside every layer's span.
  */
final case class StagedSparcle(outcome: Outcome, dmRows: Long, flagged: Long,
                               cand: CandidateResult, scored: DataFrame)

object StagedSparcle {
  def run(b: Bench, call: Long, params: SparcleParams): StagedSparcle = {
    val t = b.s.tracer
    val pts = b.points
    val (dm, dmRows) = t.span("spatialjoin", call) {
      val dm = DistanceMatrix.build(pts, params.constraint).persist()
      (dm, dm.count())
    }._1
    val (erroneous, flagged) = t.span("core.detect", call) {
      val e = SpatialErrorDetector.erroneousCells(pts, dm).persist()
      (e, e.count())
    }._1
    val cand = t.span("core.candgen", call) {
      SpatialCandidateGenerator.generate(pts, dm, erroneous, params.candGen)
    }._1
    val scored = t.span("core.formulate", call) {
      SpatialInputFormulator.allFormats(cand.candidates, dm)
    }._1
    val outcome = t.span("core.correct", call) {
      Outcome.of(Sparcle.repairsFrom(pts, erroneous, scored, cand.labels, params.keepOriginalMargin))
    }._1
    StagedSparcle(outcome, dmRows, flagged, cand, scored)
  }
}
