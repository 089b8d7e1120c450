package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestPoints}

class SpatialInputFormulatorSpec extends SparkSpec {

  import spark.implicits._

  private def pipeline(pts: Seq[TestPoints.Pt], d: Double) = {
    val df = TestPoints.df(spark, pts)
    val dm = DistanceMatrix.build(df, SpatialRange(d)).persist()
    val err = SpatialErrorDetector.erroneousCells(df, dm)
    val cand = SpatialCandidateGenerator.generate(df, dm, err, CandGenParams(minProb = 0.0))
    (df, dm, cand)
  }

  test("viol + fg identity: fg = nearW − viol = 2·nearW − totalW") {
    val (_, dm, cand) = pipeline(TestPoints.random(100, 200, 3, seed = 51), d = 50)
    val all = SpatialInputFormulator.allFormats(cand.candidates, dm).collect()
    assert(all.nonEmpty)
    all.foreach { r =>
      val nearW = r.getAs[Double]("nearW")
      val totalW = r.getAs[Double]("totalW")
      assert(math.abs(r.getAs[Double]("viol") - (totalW - nearW)) < 1e-9)
      assert(math.abs(r.getAs[Double]("fg") - (2 * nearW - totalW)) < 1e-9)
    }
  }

  test("probability vectors are a distribution over nearby-co-occurring candidates") {
    val (_, dm, cand) = pipeline(TestPoints.random(150, 250, 4, seed = 52), d = 60)
    val p = SpatialInputFormulator.allFormats(cand.candidates, dm).select("id", "value", "p")
    val sums = p.groupBy("id").agg(sum("p").as("s")).select("s").as[Double].collect()
    sums.foreach(s => assert(math.abs(s - 1.0) < 1e-9 || s == 0.0))
    assert(p.where($"p" < 0 || $"p" > 1).count() == 0)
  }

  test("candidates with no proximity co-occurrence get p = 0") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b"))
    val (_, dm, cand) = pipeline(pts, d = 10)
    val p = SpatialInputFormulator.allFormats(cand.candidates, dm)
      .where($"id" === 1L).select("value", "p").collect()
      .map(r => r.getAs[String]("value") -> r.getAs[Double]("p")).toMap
    assert(p("a") == 0.0) // own value, absent among neighbors
    assert(p("b") == 1.0)
  }

  test("violation scores match a DuckDB formulation") {
    val raw = TestPoints.random(80, 150, 3, seed = 53)
    val (df, dm, cand) = pipeline(raw, d = 45)
    val sparkViol = SpatialInputFormulator.allFormats(cand.candidates, dm)
      .select($"id", $"value", round($"viol", 4).as("viol4"))
    // viol(id, v) = Σ w over dm rows of id with v2 ≠ v (v2 non-null).
    val sql =
      """SELECT CAST(c.id AS BIGINT) AS id, c.value AS value,
        |       round(coalesce(sum(CASE WHEN m.v2 <> c.value THEN CAST(m.w AS DOUBLE) END), 0), 4) AS viol4
        |FROM cand c LEFT JOIN dm m ON CAST(m.r1 AS BIGINT) = CAST(c.id AS BIGINT) AND m.v2 IS NOT NULL
        |GROUP BY c.id, c.value
        |""".stripMargin
    Oracle.assertEquivalent(sparkViol, sql,
      "cand" -> cand.candidates.select("id", "value"), "dm" -> dm)
    dm.unpersist()
  }

  test("cells with an empty neighborhood have totalW 0 and neutral scores") {
    val pts = Seq((1L, 0.0, 0.0, null: String), (2L, 9999.0, 9999.0, "b"))
    val df = TestPoints.df(spark, pts)
    val dm = DistanceMatrix.build(df, SpatialRange(10))
    // Hand the formulator a synthetic candidate for the isolated cell.
    val cand = Seq((1L, "b", 0.0, false, 0.01, 0.1, 1.0))
      .toDF("id", "value", "nearW", "isOrig", "sumW", "prob", "normProb")
    val all = SpatialInputFormulator.allFormats(cand, dm).collect().head
    assert(all.getAs[Double]("totalW") == 0.0)
    assert(all.getAs[Double]("viol") == 0.0)
    assert(all.getAs[Double]("p") == 0.0)
    assert(all.getAs[Double]("fg") == 0.0)
  }
}
