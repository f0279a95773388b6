package repro.baselines

import repro.core._
import scala.collection.mutable

/** Flink baseline (paper §9.1): an industrial streaming system without
  * Kleene closure. Each Kleene query is flattened into a workload of
  * fixed-length event sequence queries covering every match length; all
  * matches are constructed AND stored, then aggregated (two-step). Supports
  * ANY and CONT only (Table 9).
  *
  * The stored-match set is what drives the paper's 8-orders-of-magnitude
  * memory gap; `peakUnits` counts stored trend elements.
  */
object FlinkLike extends TrendEngine {
  val name = "Flink"
  val nativeKleene = false
  def supportsSemantics(s: Semantics) = s != Semantics.NEXT
  val supportsAdjPreds = true
  val online = false

  def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult =
    try {
      // Step 1: construct and store all matches (equivalently, run every
      // flattened fixed-length sequence query; the union of their result
      // sets is exactly the trend set).
      val stored = q.semantics match {
        case Semantics.ANY  =>
          val deadline = budget.deadline
          var trends = 0L
          var unitsStored = 0L
          BruteForce.anyTrendsWith(events, q) { (steps, trend) =>
            if ((steps & 0xFFFF) == 0 && System.currentTimeMillis() > deadline)
              throw new BudgetExceeded
            if (trend != null) {
              trends += 1
              unitsStored += trend.size
              if (trends > budget.maxTrends || unitsStored > budget.maxUnits ||
                  System.currentTimeMillis() > deadline) throw new BudgetExceeded
            }
          }
        case Semantics.CONT => collectCont(events, q, budget)
        case Semantics.NEXT => throw new IllegalArgumentException("Flink does not support NEXT")
      }
      val units = stored.iterator.map(_.size.toLong).sum + events.size
      // Step 2: aggregate the stored matches.
      val acc = BruteForce.aggregate(stored, q.target)
      RunResult(acc, units, stored.size.toLong, dnf = false)
    } catch { case _: BudgetExceeded => RunResult.DNF }

  /** Contiguous matches never branch: from each start-type event, walk the
    * following substream events while the FSA permits, recording a match at
    * every end-type prefix. */
  private def collectCont(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): Vector[Vector[Ev]] = {
    val deadline = budget.deadline
    val info = q.info
    val out = mutable.ArrayBuffer.empty[Vector[Ev]]
    var unitsStored = 0L
    for (i <- events.indices if events(i).etype == info.start) {
      val cur = mutable.ArrayBuffer(events(i))
      if (info.isEnd(events(i).etype)) { out += cur.toVector; unitsStored += 1 }
      var j = i + 1
      var ok = true
      while (ok && j < events.size) {
        val e = events(j)
        if (info.contains(e.etype) && info.preds(e.etype).contains(cur.last.etype) &&
            AdjPred.holds(q.adjPreds, cur.last, e)) {
          cur += e
          if (info.isEnd(e.etype)) {
            out += cur.toVector
            unitsStored += cur.size
            if (unitsStored > budget.maxUnits || System.currentTimeMillis() > deadline)
              throw new BudgetExceeded
          }
          j += 1
        } else ok = false
      }
    }
    out.toVector
  }
}
