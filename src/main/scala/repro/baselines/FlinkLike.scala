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
      // sets is exactly the trend set). SASE's constructions build them.
      val stored = mutable.ArrayBuffer.empty[Vector[Ev]]
      var unitsStored = 0L
      def store(trend: Vector[Ev]): Unit = {
        stored += trend
        unitsStored += trend.size
        if (stored.size > budget.maxTrends || unitsStored > budget.maxUnits)
          throw new BudgetExceeded
      }
      q.semantics match {
        case Semantics.ANY  =>
          Sase.constructAny(events, q, budget.deadline)(tr => store(tr.reverseIterator.toVector))
        case Semantics.CONT =>
          Sase.constructNextCont(events, q, budget.deadline) { (partials, finished) =>
            if (finished) partials.foreach(store)
          }
        case Semantics.NEXT => throw new IllegalArgumentException("Flink does not support NEXT")
      }
      // Step 2: aggregate the stored matches.
      RunResult(BruteForce.aggregate(stored, q.target), unitsStored + events.size,
        stored.size.toLong, dnf = false)
    } catch { case _: BudgetExceeded => RunResult.DNF }
}
