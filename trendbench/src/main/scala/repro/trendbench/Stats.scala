package repro.trendbench

/** Order statistics over measured samples. */
object Stats {
  /** Linearly interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Iterable[Double], q: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "quantile of no samples")
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)
}
