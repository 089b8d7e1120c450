package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assertThrows[IllegalArgumentException](Stats.median(Nil))
  }

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Values printed by Python 3 for the same inputs.
    assert(Stats.quartiles(Seq(1.0, 2.0)) == ((0.75, 1.5, 2.25)))
    assert(Stats.quartiles(Seq(1.0, 2.0, 3.0)) == ((1.0, 2.0, 3.0)))
    assert(Stats.quartiles(Seq(5.0, 1.0, 4.0, 2.0, 3.0)) == ((1.5, 3.0, 4.5)))
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 5.5, 8.25)))
    assert(Stats.quartiles(Seq(3.5, 1.25, 9.0, 2.0, 2.0)) == ((1.625, 2.0, 6.25)))
  }

  test("spread is the interquartile distance over the median") {
    assert(math.abs(Stats.spread((1 to 10).map(_.toDouble)) - (8.25 - 2.75) / 5.5) < 1e-12)
  }

  test("a tail percentile is given only with ten samples beyond it") {
    assert(Stats.tail((1 to 99).map(_.toDouble)).isEmpty)
    assert(Stats.tail((1 to 100).map(_.toDouble)).contains((90.0, 90.0)))
    assert(Stats.tail((1 to 199).map(_.toDouble)).contains((90.0, 180.0)))
    assert(Stats.tail((1 to 200).map(_.toDouble)).contains((95.0, 190.0)))
    assert(Stats.tail((1 to 1000).map(_.toDouble)).contains((99.0, 990.0)))
  }

  test("bound checks follow the metric's direction") {
    assert(math.abs(Stats.worsening(10, 12, lowerIsBetter = true) - 0.2) < 1e-12)
    assert(math.abs(Stats.worsening(10, 8, lowerIsBetter = false) - 0.2) < 1e-12)
    assert(Stats.worsening(10, 8, lowerIsBetter = true) < 0)
    assert(Stats.withinBound(Seq(10, 10, 10), Seq(12, 12.5, 11), lowerIsBetter = true, bound = 0.25))
    assert(!Stats.withinBound(Seq(10, 10, 10), Seq(13, 12.6, 14), lowerIsBetter = true, bound = 0.25))
    assert(!Stats.withinBound(Seq(0.9, 0.9), Seq(0.8, 0.8), lowerIsBetter = false, bound = 0.1))
  }
}

class CompareSpec extends AnyFunSuite {
  import Compare._

  private val bs = Seq(Bound("t_s", lowerIsBetter = true, 0.25), Bound("f1", lowerIsBetter = false, 0.05))

  test("a metric within its bound passes, one beyond it regresses") {
    val base = Map(("w", "t_s") -> Seq(10.0, 10.2, 9.8), ("w", "f1") -> Seq(0.9, 0.9, 0.9))
    val (ok, pass) = report(bs, base, Map(("w", "t_s") -> Seq(12.0, 12.1, 11.9), ("w", "f1") -> Seq(0.89, 0.9)))
    assert(pass && ok.size == 2 && ok.forall(_.endsWith("ok")))
    val (bad, fail) = report(bs, base, Map(("w", "t_s") -> Seq(13.0, 13.2, 12.9), ("w", "f1") -> Seq(0.9)))
    assert(!fail && bad.exists(_.endsWith("REGRESSED")))
  }

  test("a regression inside the base's own spread is unresolved") {
    val base = Map(("w", "t_s") -> Seq(5.0, 10.0, 15.0, 20.0))
    val (lines, pass) = report(bs, base, Map(("w", "t_s") -> Seq(20.0, 21.0)))
    assert(pass && lines.head.endsWith("unresolved"))
  }
}
