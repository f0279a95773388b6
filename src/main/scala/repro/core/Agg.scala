package repro.core

/** The aggregate bundle maintained per slot (per type, per stored event, or
  * per pattern), implementing every column of the paper's Table 8 at once.
  *
  * For a set of (partial) trends, the fields hold:
  *  - `count`:  number of trends (COUNT(*))
  *  - `countE`: Σ over trends of #target-type events in the trend (COUNT(E))
  *  - `sum`:    Σ over trends of the trend's target-attribute sum (SUM)
  *  - `min`/`max`: min/max over trends of the trend's target min/max
  *    (+∞/−∞ neutral when no trend contains a target event yet)
  *
  * Counts are Doubles: exact below 2^53 (all correctness tests), and
  * order-of-magnitude-faithful in benchmarks where ANY counts explode.
  */
final case class Agg(count: Double, countE: Double, sum: Double, min: Double, max: Double)
    extends Serializable {
  def avg: Double = if (countE == 0) Double.NaN else sum / countE
  def isZero: Boolean = count == 0
}

object Agg {
  /** No trends. */
  val zero: Agg = Agg(0, 0, 0, Double.PositiveInfinity, Double.NegativeInfinity)
  /** One fresh trend about to be started by the incoming event (the "+1 if
    * start type" of Theorems 4.1/5.1/6.2, before the event itself is added). */
  val startUnit: Agg = Agg(1, 0, 0, Double.PositiveInfinity, Double.NegativeInfinity)

  /** Union of two disjoint trend sets (the Σ of Table 8). */
  def merge(a: Agg, b: Agg): Agg =
    if (a.isZero) b else if (b.isZero) a
    else Agg(a.count + b.count, a.countE + b.countE, a.sum + b.sum,
             math.min(a.min, b.min), math.max(a.max, b.max))

  /** Extend every trend in `s` by an event with attribute `v`.
    * `isTarget` = the event's type equals the aggregation target E:
    * each extended trend then gains one E-event of value v (Table 8 rows
    * e.count_E, e.sum, e.min; non-target rows propagate unchanged). */
  def extend(s: Agg, v: Double, isTarget: Boolean): Agg =
    if (s.isZero) zero
    else if (!isTarget) s
    else Agg(s.count, s.countE + s.count, s.sum + v * s.count,
             math.min(s.min, v), math.max(s.max, v))
}

/** A mutable [[Agg]] for the aggregators' per-event work: `add` is
  * [[Agg.merge]] and `extend` is [[Agg.extend]], applied in place, so an
  * event allocates nothing. Aggregates kept in arrays take [[AggBuf.Width]]
  * consecutive doubles, in field order. */
final class AggBuf {
  var count, countE, sum: Double = 0
  var min: Double = Double.PositiveInfinity
  var max: Double = Double.NegativeInfinity

  /** [[Agg.zero]], or [[Agg.startUnit]] if `start`. */
  def reset(start: Boolean): Unit = {
    count = if (start) 1 else 0; countE = 0; sum = 0
    min = Double.PositiveInfinity; max = Double.NegativeInfinity
  }
  def clear(): Unit = reset(false)

  /** this = merge(this, (c, ce, s, mn, mx)). */
  def add(c: Double, ce: Double, s: Double, mn: Double, mx: Double): Unit =
    if (c != 0) {
      if (count == 0) { count = c; countE = ce; sum = s; min = mn; max = mx }
      else { count += c; countE += ce; sum += s; min = math.min(min, mn); max = math.max(max, mx) }
    }
  def add(a: Array[Double], i: Int): Unit = add(a(i), a(i + 1), a(i + 2), a(i + 3), a(i + 4))
  def add(b: AggBuf): Unit = add(b.count, b.countE, b.sum, b.min, b.max)
  def set(a: Agg): Unit = { count = a.count; countE = a.countE; sum = a.sum; min = a.min; max = a.max }

  /** this = extend(this, v, isTarget). */
  def extend(v: Double, isTarget: Boolean): Unit =
    if (count == 0) clear()
    else if (isTarget) {
      countE += count; sum += v * count
      min = math.min(min, v); max = math.max(max, v)
    }

  /** a(i..) = merge(a(i..), this). */
  def addTo(a: Array[Double], i: Int): Unit =
    if (count != 0) {
      if (a(i) == 0) store(a, i)
      else {
        a(i) += count; a(i + 1) += countE; a(i + 2) += sum
        a(i + 3) = math.min(a(i + 3), min); a(i + 4) = math.max(a(i + 4), max)
      }
    }
  def store(a: Array[Double], i: Int): Unit = {
    a(i) = count; a(i + 1) = countE; a(i + 2) = sum; a(i + 3) = min; a(i + 4) = max
  }
  def toAgg: Agg = Agg(count, countE, sum, min, max)
}

object AggBuf {
  val Width = 5

  /** `n` aggregates, all [[Agg.zero]]. */
  def zeros(n: Int): Array[Double] = {
    val a = new Array[Double](n * Width)
    var i = 0
    while (i < n) { write(a, i * Width, Agg.zero); i += 1 }
    a
  }
  def write(a: Array[Double], i: Int, x: Agg): Unit = {
    a(i) = x.count; a(i + 1) = x.countE; a(i + 2) = x.sum; a(i + 3) = x.min; a(i + 4) = x.max
  }
  def read(a: Array[Double], i: Int): Agg = Agg(a(i), a(i + 1), a(i + 2), a(i + 3), a(i + 4))
}
