package repro.cleaning

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core._

/** Non-spatial rule-based cleaning baseline standing in for HoloClean with
  * all signals except denial constraints muted (the paper's comparison
  * configuration, §6).
  *
  * It is exactly the Sparcle pipeline run under the degenerate
  * [[repro.core.ExactLocation]] constraint: co-occurrence only between
  * records at the *same exact coordinates*, every co-occurrence weighing 1 —
  * i.e., classic denial-constraint evaluation via an equality self-join.
  * Consequences, which reproduce Table 1's two regimes:
  *
  *  - errors at duplicated locations are detected (conflicting duplicates)
  *    and repaired from the co-located majority — near-perfect accuracy;
  *  - *wrong values* at new locations co-occur with nothing, violate
  *    nothing, and are silently missed;
  *  - *missing values* at new locations are detected (null rule) but have no
  *    constraint evidence; the statistical repair engine then falls back to
  *    the attribute's global distribution — emulated here by imputing the
  *    modal value, which is what a constraint-only factor graph converges to
  *    without co-occurrence signals. This reproduces HoloClean's ~30% recall
  *    on new-location NYC borough errors (≈ the modal borough's share).
  *
  * The fallback finds its cells in the base run's persisted candidate frame
  * alone: the null cells without a candidate. Every null cell is flagged,
  * and the corrector repairs exactly the flagged cells that have a
  * candidate, so none of these cells has a repair yet.
  */
object HoloCleanLike {

  def clean(points: DataFrame, candGen: CandGenParams = CandGenParams()): SparcleResult = {
    val base = Sparcle.clean(points, SparcleParams(ExactLocation, candGen))

    // Modal-value fallback for null cells without candidates (isolated
    // missing values).
    val modalRow = points.where(col("value").isNotNull)
      .groupBy("value").agg(count(lit(1)).as("cnt"))
      .orderBy(col("cnt").desc, col("value").asc)
      .limit(1).collect()
    if (modalRow.isEmpty) return base // fully-null column: nothing to impute
    val modal = modalRow.head.getString(0)

    val unhandledNulls = points.where(col("value").isNull).select("id")
      .join(base.candidates.select("id").distinct(), Seq("id"), "left_anti")
    val fallback = unhandledNulls.select(
      col("id"), lit(null).cast("string").as("oldValue"), lit(modal).as("newValue"))

    base.copy(repairs = base.repairs.unionByName(fallback))
  }
}
