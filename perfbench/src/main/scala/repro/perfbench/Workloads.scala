package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.data._
import repro.geo.CityExtents._
import repro.geo.RegionMap

/** A cleaning system as the benchmark calls it; `key` names its metrics. */
sealed abstract class Cleaner(val key: String)
object Cleaner {
  case object SparcleN2 extends Cleaner("sparcle")
  case object SparcleN0 extends Cleaner("sparcle_n0")
  case object Holo extends Cleaner("holo")
  case object Baran extends Cleaner("baran")
  val All: Seq[Cleaner] = Seq(SparcleN2, SparcleN0, Holo, Baran)
}

/** One benchmark workload: a dataset stand-in, the attribute every pass
  * cleans, the range `d` of its spatial constraint and the systems a pass
  * runs. Why each was chosen is in BENCHMARK.json and README.md.
  *
  * @param spec      the dataset's specification at a benchmark seed and a
  *                  record scale; seed 0 is the published `Datasets.*` one
  * @param published the `Datasets.*` generator seed 0 must reproduce
  * @param table4    Table 4 of EXPERIMENTS.md for the whole dataset: each
  *                  attribute's row and the "Overall" row, per system (Left:
  *                  Baran's abort marker); the `attr` row is checked at seed 0
  */
final case class Workload(
    name: String,
    attr: String,
    d: Double,
    systems: Seq[Cleaner],
    spec: (Long, Double) => DatasetSpec,
    published: SparkSession => SpatialDataset,
    table4: Map[String, Map[Cleaner, Either[String, Double]]],
)

object Workloads {
  import Cleaner._

  val DefaultSeed = 0L

  private def sc(v: Int, scale: Double): Int = math.max(1, math.round(v * scale).toInt)

  private def row(n2: Double, n0: Double, holo: Double, baran: Either[String, Double]) =
    Map[Cleaner, Either[String, Double]](SparcleN2 -> Right(n2), SparcleN0 -> Right(n0),
                                        Holo -> Right(holo), Baran -> baran)

  /** Same specification as `Datasets.nycCrash`, with the record seed moved
    * by the benchmark seed.
    */
  def nycSpec(seed: Long, scale: Double): DatasetSpec = DatasetSpec(
    "NYC-Crash", Nyc, sc(40000, scale), dupShare = 0.15,
    attrs = Seq(
      AttrSpec("borough", RegionMap.voronoiLabeled(Nyc, Datasets.NycBoroughs, 301),
               errors = sc(9614, scale), dupRatio = 0.44, missingShare = 0.995),
      AttrSpec("zipcode", RegionMap.voronoi(Nyc, 230, "11", 302),
               errors = sc(12070, scale), dupRatio = 0.30, missingShare = 0.5),
    ),
    seed = 31 + seed,
  )

  /** Same specification as `Datasets.austinCode`, with the record seed
    * moved by the benchmark seed.
    */
  def austinSpec(seed: Long, scale: Double): DatasetSpec = DatasetSpec(
    "Austin-Code", Austin, sc(8000, scale), dupShare = 0.0,
    attrs = Seq(
      AttrSpec("zipcode", RegionMap.voronoi(Austin, 50, "787", seed = 101),
               errors = sc(1196, scale), dupRatio = 0.0, missingShare = 0.0),
      AttrSpec("city", RegionMap.dominant(Austin, 9, "Austin", "suburb", dominantShare = 0.78, seed = 102),
               errors = sc(1047, scale), dupRatio = 0.0, missingShare = 0.0),
    ),
    seed = 11 + seed,
  )

  val NycTable4: Workload = Workload(
    name = "nyc_table4",
    attr = "zipcode",
    d = 700,
    systems = Seq(SparcleN2, Holo, Baran),
    spec = nycSpec,
    published = s => Datasets.nycCrash()(s),
    table4 = Map(
      "borough" -> row(0.994, 0.993, 0.593, Left("-#")),
      "zipcode" -> row(0.948, 0.930, 0.318, Left("-#")),
      "Overall" -> row(0.958, 0.948, 0.370, Left("-#")),
    ),
  )

  val AustinTable6: Workload = Workload(
    name = "austin_table6",
    attr = "city",
    d = 800,
    systems = Seq(SparcleN2, Holo, Baran),
    spec = austinSpec,
    published = s => Datasets.austinCode()(s),
    table4 = Map(
      "zipcode" -> row(0.922, 0.928, 0.000, Right(0.000)),
      "city" -> row(0.945, 0.940, 0.000, Right(0.676)),
      "Overall" -> row(0.918, 0.922, 0.000, Right(0.364)),
    ),
  )

  val All: Seq[Workload] = Seq(NycTable4, AustinTable6)

  def byName(name: String): Option[Workload] = All.find(_.name == name)
}
