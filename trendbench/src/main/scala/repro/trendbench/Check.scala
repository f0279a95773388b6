package repro.trendbench

import repro.core.{Agg, WinResult}
import scala.collection.mutable
import scala.util.control.NonFatal

/** Result of comparing one computed aggregate with its reference. */
sealed trait Verdict
object Verdict {
  case object Pass extends Verdict
  case object Mismatch extends Verdict
  /** A count, COUNT(E) or SUM that is not finite, on either side: the
    * aggregate left the Double range, so agreement cannot be shown. */
  case object Saturated extends Verdict
}

object Check {
  /** Relative tolerance on count, COUNT(E) and SUM. Engines sum in different
    * orders, so these may differ in the last bits; MIN and MAX may not. */
  val relTol = 1e-9

  /** count, COUNT(E) and SUM finite; MIN/MAX finite when some trend finished,
    * and the neutral ±∞ of [[Agg.zero]] when none did. */
  def finite(a: Agg): Boolean =
    a.count.isFinite && a.countE.isFinite && a.sum.isFinite &&
      (if (a.count > 0) a.min.isFinite && a.max.isFinite
       else a.min == Double.PositiveInfinity && a.max == Double.NegativeInfinity)

  private def close(x: Double, y: Double): Boolean =
    x == y || math.abs(x - y) <= relTol * math.max(math.abs(x), math.abs(y))

  /** Unlike an equality test, two infinite counts are not agreement. */
  def verdict(got: Agg, want: Agg): Verdict =
    if (!finite(got) || !finite(want)) Verdict.Saturated
    else if (close(got.count, want.count) && close(got.countE, want.countE) &&
             close(got.sum, want.sum) && got.min == want.min && got.max == want.max)
      Verdict.Pass
    else Verdict.Mismatch

  def agg(r: WinResult): Agg = Agg(r.count, r.countE, r.sum, r.min, r.max)

  /** Compare keyed results with keyed references: a missing, extra or
    * repeated key is a mismatch. */
  def keyed[K](got: Seq[(K, Agg)], want: Map[K, Agg]): Seq[Verdict] = {
    val seen = mutable.HashSet.empty[K]
    val compared = got.map { case (k, g) =>
      if (!seen.add(k)) Verdict.Mismatch
      else want.get(k).fold[Verdict](Verdict.Mismatch)(verdict(g, _))
    }
    compared ++ want.keysIterator.filterNot(seen).map(_ => Verdict.Mismatch)
  }
}

/** Correctness accounting for one run. Every checked operation is attempted;
  * a mismatch, an exception or a non-finite aggregate fails it. Saturated
  * aggregates are also counted on their own. */
final class Tally {
  var attempted = 0L
  var failed = 0L
  var saturated = 0L
  /** The first few failures, for the run record. */
  val notes: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  private def note(s: String): Unit = if (notes.size < 20) notes += s

  /** Record one operation whose outcome is the given comparisons. */
  def op(what: String)(verdicts: => Iterable[Verdict]): Boolean = {
    attempted += 1
    try {
      val vs = verdicts
      val sat = vs.count(_ == Verdict.Saturated)
      val bad = vs.count(_ != Verdict.Pass)
      saturated += sat
      if (bad > 0) {
        failed += 1
        note(s"$what: $bad of ${vs.size} aggregates wrong ($sat saturated)")
      }
      bad == 0
    } catch {
      case NonFatal(e) =>
        failed += 1
        note(s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}")
        false
    }
  }

  /** Record an operation that threw before it produced anything to check. */
  def crashed(what: String, e: Throwable): Unit = op(what)(throw e)
}
