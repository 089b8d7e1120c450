package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Spatial input formulators (§5): translate Sparcle's candidate evidence
  * into the input format of the host system's error-correction module.
  *
  * All three formats derive from two aggregates over the DistanceMatrix:
  * `nearW(id, v)` — the summed weight of rows where the cell's neighbors
  * carry value v (carried on the candidates frame) — and `totalW(id)` — the
  * cell's total neighbor weight. For a candidate v of cell id:
  *
  *  - AimNet violation score (§5.1):      viol = totalW − nearW(v)   (lower is better)
  *  - Baran probability vector (§5.2):    p    = nearW(v) / totalW   (higher is better)
  *  - HoloClean/MLNClean factor sum (§5.3): fg  = nearW(v) − (totalW − nearW(v))
  *                                              = 2·nearW(v) − totalW (higher is better)
  *
  * With W ≡ 1 these degrade to the hosts' original violation counts /
  * co-occurrence probabilities / ±1 factor sums, which is exactly how the
  * paper presents the injection (Fig. 4).
  */
object SpatialInputFormulator {

  /** All three host formats in one pass: AimNet violation vectors (§5.1,
    * Fig. 4a), Baran probability vectors (§5.2, Fig. 4b; candidates with no
    * proximity co-occurrence get p = 0) and HoloClean/MLNClean factor-graph
    * sums (§5.3, Fig. 4c). `totalW` sums w over the DistanceMatrix rows of
    * the cell with a non-null neighbor value (0 without neighbors).
    * Columns: candidates ++ (`totalW`, `viol`, `p`, `fg`).
    */
  def allFormats(candidates: DataFrame, dm: DataFrame): DataFrame = {
    val totalW = dm.where(col("v2").isNotNull)
      .groupBy(col("r1").as("id"))
      .agg(sum("w").as("totalW"))
    candidates.join(totalW, Seq("id"), "left")
      .withColumn("totalW", coalesce(col("totalW"), lit(0.0)))
      .withColumn("viol", col("totalW") - col("nearW"))
      .withColumn("p",
        when(col("totalW") > 0, col("nearW") / col("totalW")).otherwise(lit(0.0)))
      .withColumn("fg", lit(2.0) * col("nearW") - col("totalW"))
  }
}
