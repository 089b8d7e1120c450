package repro.perfbench

/** Order statistics the benchmark reports and checks. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Quartiles (q1, q2, q3) by the "exclusive" method, the default of
    * Python's `statistics.quantiles(values, n=4)`.
    */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    require(xs.size >= 2, "quartiles need at least two samples")
    val s = xs.sorted
    val ld = s.size
    val m = ld + 1
    def cut(i: Int): Double = {
      val j = math.min(math.max(i * m / 4, 1), ld - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (cut(1), cut(2), cut(3))
  }

  /** Interquartile distance as a share of the median. */
  def spread(xs: Seq[Double]): Double = {
    val (q1, _, q3) = quartiles(xs)
    (q3 - q1) / median(xs)
  }

  private val Percentiles = Seq(99.9, 99.0, 95.0, 90.0)

  /** The highest of p90, p95, p99 and p99.9 that has at least ten samples
    * beyond it, as (percentile, value); `None` when no tail is that well
    * sampled. The value is the nearest-rank percentile.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] = {
    val s = xs.sorted
    val n = s.size
    Percentiles.iterator.map { p =>
      val rank = math.max(1, math.ceil(p / 100 * n).toInt)
      (p, s(rank - 1), n - rank)
    }.collectFirst { case (p, v, beyond) if beyond >= 10 => (p, v) }
  }

  /** How much worse `now` is than `base`, as a share of `base`; negative
    * when it is better. `lowerIsBetter` names the metric's direction.
    */
  def worsening(base: Double, now: Double, lowerIsBetter: Boolean): Double = {
    require(base > 0, s"base must be positive, got $base")
    if (lowerIsBetter) (now - base) / base else (base - now) / base
  }

  /** A metric passes its bound when its median got worse by at most
    * `bound` (a share of the base median).
    */
  def withinBound(base: Seq[Double], now: Seq[Double], lowerIsBetter: Boolean,
                  bound: Double): Boolean =
    worsening(median(base), median(now), lowerIsBetter) <= bound
}
