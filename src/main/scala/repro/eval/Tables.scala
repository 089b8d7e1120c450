package repro.eval

import org.apache.spark.sql.SparkSession

import repro.cleaning.HoloCleanLike
import repro.core._
import repro.data.{Datasets, DatasetStats, SpatialDataset}

/** Builders for the paper's evaluation tables (structured results + printable
  * text). Benches assert on the structured part and print the text; jobs just
  * print. Per-dataset spatial ranges follow DESIGN.md §5.
  */
object Tables {

  /** Spatial range d (meters) per dataset stand-in. */
  val RangeD: Map[String, Double] = Map(
    "Austin-Code" -> 800.0,
    "Chicago-Building" -> 600.0,
    "NYC-Crash" -> 700.0,
    "Chicago-Synthetic" -> 1000.0,
  )

  // ------------------------------------------------------------------
  // Table 1 — NYC borough repair: recall total / duplicated / new location.
  // ------------------------------------------------------------------
  final case class Table1(holo: DupSplit, sparcle: DupSplit)

  def table1(scale: Double = 1.0)(implicit spark: SparkSession): Table1 = {
    val nyc = Datasets.nycCrash(scale)
    val pts = nyc.points("borough").persist()
    pts.count()
    val truth = nyc.truthFor("borough")
    val holo = Metrics.dupSplit(pts, truth, HoloCleanLike.clean(pts).repairs)
    val sparcle = Metrics.dupSplit(pts, truth,
      Sparcle.clean(pts, SparcleParams(SpatialRange(RangeD("NYC-Crash"), PowerWeight(2)))).repairs)
    pts.unpersist()
    Table1(holo, sparcle)
  }

  def renderTable1(t: Table1): String =
    TableFmt.render(
      Seq("", "HoloClean", "Sparcle"),
      Seq(
        Seq("Total", TableFmt.f3(t.holo.total.recall), TableFmt.f3(t.sparcle.total.recall)),
        Seq("Errors at duplicated location",
            TableFmt.f3(t.holo.duplicated.recall), TableFmt.f3(t.sparcle.duplicated.recall)),
        Seq("Errors at new location",
            TableFmt.f3(t.holo.newLocation.recall), TableFmt.f3(t.sparcle.newLocation.recall)),
      ))

  // ------------------------------------------------------------------
  // Table 2 — the worked example's candidate generation state.
  // ------------------------------------------------------------------
  final case class Table2Row(cell: Long, value: String, sumW: Double, prob: Double, normProb: Double)

  def table2()(implicit spark: SparkSession): Seq[Table2Row] = {
    val (_, cand, _) = PaperExample.run(spark)
    cand.candidates.collect().map { r =>
      Table2Row(r.getAs[Long]("id"), r.getAs[String]("value"),
        r.getAs[Double]("sumW"), r.getAs[Double]("prob"), r.getAs[Double]("normProb"))
    }.sortBy(r => (r.cell, r.value)).toIndexedSeq
  }

  def renderTable2(rows: Seq[Table2Row]): String =
    TableFmt.render(
      Seq("Cell", "Candidate Value", "Sum Weights", "Probability", "Normalized Prob."),
      rows.map(r => Seq(s"r${r.cell}", r.value, TableFmt.f2(r.sumW),
                        f"${r.prob}%.2e", TableFmt.f2(r.normProb))))

  // ------------------------------------------------------------------
  // Table 3 — dataset properties.
  // ------------------------------------------------------------------
  final case class Table3Row(dataset: String, attr: String, records: Long, errors: Long,
                             dupRatio: Double, distinct: Long)

  def table3(scale: Double = 1.0)(implicit spark: SparkSession): Seq[Table3Row] =
    allDatasets(scale).flatMap { ds =>
      DatasetStats.forDataset(ds).map(s =>
        Table3Row(ds.name, s.attr, s.records, s.errors, s.dupRatio, s.distinctValues))
    }

  def renderTable3(rows: Seq[Table3Row]): String =
    TableFmt.render(
      Seq("Dataset", "Dependency", "Records", "Errors", "Dup.", "Dis."),
      rows.map(r => Seq(r.dataset, s"(Lat,Lon) -> ${r.attr}", r.records.toString,
                        r.errors.toString, TableFmt.f2(r.dupRatio), r.distinct.toString)))

  def allDatasets(scale: Double = 1.0)(implicit spark: SparkSession): Seq[SpatialDataset] =
    Seq(Datasets.austinCode(scale), Datasets.chicagoBuilding(scale), Datasets.nycCrash(scale),
        Datasets.chicagoSynthetic(
          nRecords = math.max(100, (20000 * scale).toInt),
          errors = math.max(10, (2000 * scale).toInt)))

  // ------------------------------------------------------------------
  // Tables 4 & 5 — accuracy per dependency (+ Overall for Table 4).
  // ------------------------------------------------------------------
  def renderAccuracy(title: String, runs: Runner.DatasetRun): String = {
    def m(b: Either[String, Runner.SystemRun], f: Scores => Double): String =
      b.fold(identity, r => TableFmt.f3(f(r.scores)))
    def mo(b: Either[String, Scores], f: Scores => Double): String =
      b.fold(identity, s => TableFmt.f3(f(s)))
    val attrRows = runs.attrRuns.flatMap { r =>
      Seq(
        Seq(r.attr, "Prec.", TableFmt.f3(r.sparcleN2.scores.precision),
            TableFmt.f3(r.sparcleN0.scores.precision), TableFmt.f3(r.holo.scores.precision),
            m(r.baran, _.precision)),
        Seq(r.attr, "Rec.", TableFmt.f3(r.sparcleN2.scores.recall),
            TableFmt.f3(r.sparcleN0.scores.recall), TableFmt.f3(r.holo.scores.recall),
            m(r.baran, _.recall)),
        Seq(r.attr, "F1", TableFmt.f3(r.sparcleN2.scores.f1),
            TableFmt.f3(r.sparcleN0.scores.f1), TableFmt.f3(r.holo.scores.f1),
            m(r.baran, _.f1)),
      )
    }
    val overallRows = Seq(
      Seq("Overall", "Prec.", TableFmt.f3(runs.overallN2.precision),
          TableFmt.f3(runs.overallN0.precision), TableFmt.f3(runs.overallHolo.precision),
          mo(runs.overallBaran, _.precision)),
      Seq("Overall", "Rec.", TableFmt.f3(runs.overallN2.recall),
          TableFmt.f3(runs.overallN0.recall), TableFmt.f3(runs.overallHolo.recall),
          mo(runs.overallBaran, _.recall)),
      Seq("Overall", "F1", TableFmt.f3(runs.overallN2.f1),
          TableFmt.f3(runs.overallN0.f1), TableFmt.f3(runs.overallHolo.f1),
          mo(runs.overallBaran, _.f1)),
    )
    s"== $title ==\n" + TableFmt.render(
      Seq("Attribute", "Metric", "Sparcle(n=2)", "Sparcle(n=0)", "HoloClean", "Baran"),
      attrRows ++ overallRows)
  }

  // ------------------------------------------------------------------
  // Table 6 — running time per system per real dataset.
  // ------------------------------------------------------------------
  final case class Table6Row(dataset: String, sparcleSec: Double, holoSec: Double,
                             baran: Either[String, Double])

  /** Runs `f` and returns its result with the wall time in seconds. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Seconds as `<minutes>m<seconds>s`, e.g. `1m05.3s`. */
  def fmtTime(s: Double): String = {
    val m = (s / 60).toInt
    f"${m}m${s - m * 60}%04.1fs"
  }

  def timeSystems(ds: SpatialDataset, d: Double): Table6Row = {
    val (_, sparcleT) = timed {
      ds.attrs.foreach(a => Runner.sparcleRepairs(ds, a, d, n = 2).count())
    }
    val (_, holoT) = timed {
      ds.attrs.foreach(a => Runner.holoRepairs(ds, a).count())
    }
    val (failure, baranT) = timed {
      ds.attrs.map(a => Runner.baranRepairs(ds, a).map(_.count()))
        .collectFirst { case Left(m) => m }
    }
    Table6Row(ds.name, sparcleT, holoT, failure.toLeft(baranT))
  }

  def renderTable6(rows: Seq[Table6Row]): String =
    TableFmt.render(
      Seq("Dataset", "Sparcle", "HoloClean", "Baran"),
      rows.map(r => Seq(r.dataset, fmtTime(r.sparcleSec), fmtTime(r.holoSec),
                        r.baran.fold(identity, fmtTime))))
}
