package repro.baselines

import repro.core._
import scala.collection.mutable

/** GRETA baseline (paper §9.1 and [32]): online event trend aggregation
  * under skip-till-any-match at the finest (event) granularity. Every
  * matched event is kept as a graph node `(event, aggregate)`; a new event
  * scans all stored events of its predecessor types (evaluating the
  * adjacency predicates edge by edge), so time is O(n²) and memory O(n) —
  * the graph-construction overhead the paper's §9.2/§9.4 attribute GRETA's
  * delays to. Events are taken in the order given, so every node is
  * earlier than the event that visits it.
  */
object Greta extends TrendEngine {
  val name = "GRETA"
  val nativeKleene = true
  def supportsSemantics(s: Semantics) = s == Semantics.ANY
  val supportsAdjPreds = true
  val online = true

  def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult =
    try {
      val info = q.info
      var work = 0L
      val nodes = mutable.ArrayBuffer.empty[(Ev, Agg)] // the GRETA graph
      var finalAgg = Agg.zero
      for (e <- events) {
        val tpe = e.etype
        if (info.contains(tpe)) {
          work += nodes.size; budget.check(work) // one visit per stored event
          val predTs = info.preds(tpe)
          var s = if (info.isStart(tpe)) Agg.startUnit else Agg.zero
          val it = nodes.iterator
          while (it.hasNext) {
            val (p, pAgg) = it.next()
            if (predTs(p.etype) && AdjPred.holds(q.adjPreds, p, e)) s = Agg.merge(s, pAgg)
          }
          val eAgg = Agg.extend(s, e.value, tpe == q.target)
          if (!eAgg.isZero) {
            nodes += ((e, eAgg))
            if (info.isEnd(tpe)) finalAgg = Agg.merge(finalAgg, eAgg)
          }
        }
      }
      RunResult(finalAgg, nodes.size + 1L, 0L, work, dnf = false)
    } catch { case _: BudgetExceeded => RunResult.DNF }
}
