package repro.baselines

import repro.core._
import scala.collection.mutable

/** Declarative reference implementation of the paper's Definitions 2–4:
  * enumerates the exact trend sets and aggregates them directly. Exponential
  * — used only as the correctness oracle on small substreams. The two-step
  * engines share only its per-trend aggregate ([[trendAgg]], [[aggregate]]).
  */
object BruteForce {

  /** Enumeration aborts with [[BudgetExceeded]] beyond this many ANY trends. */
  private val MaxTrends = 10_000_000L

  /** All trends under skip-till-any-match (Definition 2): subsequences of
    * the substream whose type word follows the pattern FSA from the start
    * type to the end type, with all applicable adjacent-event predicates
    * holding between consecutive trend events. */
  def anyTrends(events: IndexedSeq[Ev], q: TrendQuery): Vector[Vector[Ev]] = {
    val info = q.info
    val out = mutable.ArrayBuffer.empty[Vector[Ev]]
    val cur = mutable.ArrayBuffer.empty[Ev]
    def dfs(fromIdx: Int): Unit = {
      val last = cur.last
      if (info.isEnd(last.etype)) {
        out += cur.toVector
        if (out.size > MaxTrends) throw new BudgetExceeded
      }
      var j = fromIdx
      while (j < events.size) {
        val e = events(j)
        if (info.contains(e.etype) && info.preds(e.etype).contains(last.etype) &&
            AdjPred.holds(q.adjPreds, last, e)) {
          cur += e; dfs(j + 1); cur.remove(cur.size - 1)
        }
        j += 1
      }
    }
    for (i <- events.indices if events(i).etype == info.start) {
      cur += events(i); dfs(i + 1); cur.remove(cur.size - 1)
    }
    out.toVector
  }

  /** Trends under skip-till-next-match (Definition 3): ANY trends tr such
    * that no other ANY trend tr' shares tr's start and end events with
    * tr.mid ⊆ tr'.mid. */
  def nextTrends(events: IndexedSeq[Ev], q: TrendQuery): Vector[Vector[Ev]] = {
    val any = anyTrends(events, q)
    val byStartEnd = any.groupBy(tr => (tr.head.sid, tr.last.sid))
    any.filter { tr =>
      val mid = tr.slice(1, tr.size - 1).map(_.sid).toSet
      !byStartEnd((tr.head.sid, tr.last.sid)).exists { tr2 =>
        (tr2 ne tr) && tr2 != tr && mid.subsetOf(tr2.slice(1, tr2.size - 1).map(_.sid).toSet)
      }
    }
  }

  /** Trends under the contiguous semantics (Definition 4): ANY trends with
    * no substream event strictly between trend start and end that is not
    * part of the trend — i.e. gap-free in the substream. (Every gap-free
    * ANY trend is vacuously maximal-mid, hence also a NEXT trend.) */
  def contTrends(events: IndexedSeq[Ev], q: TrendQuery): Vector[Vector[Ev]] = {
    val idx = events.iterator.zipWithIndex.map { case (e, i) => e.sid -> i }.toMap
    anyTrends(events, q).filter { tr =>
      idx(tr.last.sid) - idx(tr.head.sid) == tr.size - 1
    }
  }

  def trends(events: IndexedSeq[Ev], q: TrendQuery): Vector[Vector[Ev]] =
    q.semantics match {
      case Semantics.ANY  => anyTrends(events, q)
      case Semantics.NEXT => nextTrends(events, q)
      case Semantics.CONT => contTrends(events, q)
    }

  /** Aggregate a set of explicitly constructed trends (the two-step
    * approach's second step, and the definition the incremental aggregators
    * must agree with). */
  def aggregate(trendSet: Iterable[Vector[Ev]], target: String): Agg =
    trendSet.foldLeft(Agg.zero)((acc, tr) => Agg.merge(acc, trendAgg(tr, target)))

  /** The aggregate bundle of one trend. */
  def trendAgg(trend: Iterable[Ev], target: String): Agg = {
    val ts = trend.filter(_.etype == target)
    Agg(
      count = 1,
      countE = ts.size,
      sum = ts.map(_.value).sum,
      min = if (ts.isEmpty) Double.PositiveInfinity else ts.map(_.value).min,
      max = if (ts.isEmpty) Double.NegativeInfinity else ts.map(_.value).max)
  }

  /** Full declarative evaluation: enumerate then aggregate. */
  def evaluate(events: IndexedSeq[Ev], q: TrendQuery): Agg =
    aggregate(trends(events, q), q.target)
}
