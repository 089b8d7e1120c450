package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  private def span(id: Long, parent: Long, start: Long, end: Long) =
    Span(id, s"s$id", parent, 1, start * 1000000000L, end * 1000000000L, 0)

  test("self time subtracts the union of the children's intervals") {
    val root = span(1, 0, 0, 10)
    val all = Seq(root, span(2, 1, 1, 3), span(3, 1, 2, 5), span(4, 1, 8, 12), span(5, 2, 1, 2))
    // Children cover [1, 5) and [8, 10): 6 of 10 seconds.
    assert(Tracer.selfSeconds(root, all) == 4.0)
    assert(Tracer.selfSeconds(all(1), all) == 1.0)
    assert(Tracer.descendants(all, root).map(_.id).toSet == Set(2L, 3L, 4L, 5L))
  }

  test("listener attributes jobs and tasks to the innermost open span") {
    val spark = SparkSession.builder().master("local[2]").appName("tracer-spec")
      .config("spark.ui.enabled", "false").getOrCreate()
    try {
      val counters = new SpanCounters
      spark.sparkContext.addSparkListener(counters)
      val tracer = new Tracer(spark.sparkContext, counters)
      val df = spark.range(0, 1000, 1, 4)
      spark.range(10).count() // outside every span
      val (_, outer) = tracer.span("outer", 1) {
        df.count()
        tracer.span("inner", 1) { df.count(); df.groupBy(df("id") % 3).count().collect() }
      }
      SpanCounters.drain(spark.sparkContext)
      val inner = tracer.spans.find(_.name == "inner").get
      assert(counters.of(outer.id).jobs >= 1)
      assert(counters.of(inner.id).jobs > counters.of(outer.id).jobs)
      assert(counters.of(inner.id).tasks >= 4)
      assert(counters.of(inner.id).shuffleBytes > 0)
      assert(tracer.inclusive(outer).jobs == counters.of(outer.id).jobs + counters.of(inner.id).jobs)
      assert(counters.of(0).jobs >= 1)
      assert(inner.parent == outer.id)
      assert(spark.sparkContext.getLocalProperty(SpanCounters.Key) == null)
    } finally spark.stop()
  }

  test("call checks: digest and, without empty stages, job and task counts") {
    def rec(pass: Int, digest: Seq[(Long, String, String)], c: Counts) =
      CallRecord(pass, "sparcle", Cleaner.SparcleN2, 1.0, c, 0, Repaired(digest), None)
    val rows = Seq((1L, "a", "b"))
    val first = rec(1, rows, Counts(jobs = 26, tasks = 238))
    assert(Runs.checkAgainst(first, rec(2, rows.reverse, Counts(jobs = 26, tasks = 238))).isEmpty)
    assert(Runs.checkAgainst(first, rec(2, Seq((1L, "a", "c")), first.counts)).isDefined)
    assert(Runs.checkAgainst(first, rec(2, rows, Counts(jobs = 14, tasks = 120))).isDefined)
    val raced = Counts(jobs = 15, tasks = 133, emptyStages = 2)
    assert(Runs.checkAgainst(rec(1, rows, raced), rec(2, rows, raced.copy(jobs = 17))).isEmpty)
  }
}
