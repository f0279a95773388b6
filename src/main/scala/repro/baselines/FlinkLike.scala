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
      var work = 0L // stored trend elements
      def store(trend: Vector[Ev]): Unit = {
        work += trend.size; budget.check(work)
        stored += trend
      }
      q.semantics match {
        case Semantics.ANY  =>
          Sase.constructAny(events, q, Budget(Long.MaxValue))(tr => store(tr.reverseIterator.toVector))
        case Semantics.CONT =>
          Sase.constructNextCont(events, q) { (partials, finished) =>
            if (finished) partials.foreach(store)
          }
        case Semantics.NEXT => throw new IllegalArgumentException("Flink does not support NEXT")
      }
      // Step 2: aggregate the stored matches.
      RunResult(BruteForce.aggregate(stored, q.target), work + events.size,
        stored.size.toLong, work, dnf = false)
    } catch { case _: BudgetExceeded => RunResult.DNF }
}
