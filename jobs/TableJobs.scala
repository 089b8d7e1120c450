package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.cleaning.BaranParams
import repro.core.{PowerWeight, Sparcle, SparcleParams, SpatialRange}
import repro.data.Datasets
import repro.eval.{Metrics, Runner, TableFmt, Tables}

/** Table 1 — NYC-Crash borough repair recall (total / duplicated / new). */
object Table1Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-table1")
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val (t, sec) = Tables.timed(Tables.table1(scale))
    println(Tables.renderTable1(t))
    println(f"[table1] done in ${Tables.fmtTime(sec)}")
    spark.stop()
  }
}

/** Table 2 — the paper's worked example (candidate generation state). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-table2")
    println(Tables.renderTable2(Tables.table2()))
    spark.stop()
  }
}

/** Table 3 — dataset properties of the four stand-ins. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-table3")
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    println(Tables.renderTable3(Tables.table3(scale)))
    spark.stop()
  }
}

/** Table 4 — accuracy on the three real-data stand-ins. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-table4")
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    for (ds <- Seq(Datasets.austinCode(scale), Datasets.chicagoBuilding(scale),
                   Datasets.nycCrash(scale))) {
      val run = Runner.runDataset(ds, Tables.RangeD(ds.name), BaranParams())
      println(Tables.renderAccuracy(ds.name, run))
    }
    spark.stop()
  }
}

/** Table 5 — accuracy per attribute (distinct-value sweep) on Chicago-Synthetic. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-table5")
    val n = args.headOption.map(_.toInt).getOrElse(20000)
    val errors = args.lift(1).map(_.toInt).getOrElse(2000)
    val ds = Datasets.chicagoSynthetic(n, errors)
    val run = Runner.runDataset(ds, Tables.RangeD("Chicago-Synthetic"), BaranParams())
    println(Tables.renderAccuracy(ds.name, run))
    spark.stop()
  }
}

/** Table 6 — running time per system per real dataset. */
object Table6Job {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-table6")
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val rows = Seq(Datasets.austinCode(scale), Datasets.chicagoBuilding(scale),
                   Datasets.nycCrash(scale))
      .map(ds => Tables.timeSystems(ds, Tables.RangeD(ds.name)))
    println(Tables.renderTable6(rows))
    spark.stop()
  }
}

/** Figure-5-style parameter sweep (table form): F1 and runtime vs d and n.
  * Out of the reproduction's table scope but kept for parameter studies.
  */
object ParamSweepJob {
  def main(args: Array[String]): Unit = {
    implicit val spark: SparkSession = Jobs.session("sparcle-paramsweep")
    val n = args.headOption.map(_.toInt).getOrElse(8000)
    val ds = Datasets.chicagoSynthetic(n, errors = n / 10)
    val pts = ds.points("census").persist()
    val truth = ds.truthFor("census")
    val rows = for (d <- Seq(250.0, 500.0, 1000.0, 2000.0); w <- Seq(0.0, 2.0, 4.0, 16.0)) yield {
      // count() runs the corrector inside the timed block; the frame is lazy.
      val (repairs, sec) = Tables.timed {
        val r = Sparcle.clean(pts, SparcleParams(SpatialRange(d, PowerWeight(w)))).repairs
        r.count()
        r
      }
      val s = Metrics.score(pts, truth, repairs)
      Seq(d.toInt.toString, w.toInt.toString, TableFmt.f3(s.f1), Tables.fmtTime(sec))
    }
    pts.unpersist()
    println(TableFmt.render(Seq("d", "n", "F1", "time"), rows))
    spark.stop()
  }
}
