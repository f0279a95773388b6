package repro.core

/** Pattern-grained aggregator (paper §6, Algorithm 3, Theorem 6.2; Table 8
  * right column): under NEXT/CONT an event has at most one predecessor
  * event (Theorem 6.1), so only the final aggregate and the last matched
  * event's aggregate are kept. Time O(n), space O(1).
  *
  * Fidelity note (see DESIGN.md): this is the paper's single-tip operational
  * semantics; a new start-type event replaces the tip (Algorithm 3 line 7).
  */
final class PatternGrained(val query: TrendQuery, restore: Option[PatternState] = None)
    extends TrendAggregator[PatternState] {
  require(query.semantics == Semantics.NEXT || query.semantics == Semantics.CONT,
    "pattern granularity applies to NEXT/CONT only (Table 4)")
  private val info = query.info
  private val target = query.target
  private val preds = query.adjPreds
  private val cont = query.semantics == Semantics.CONT

  // Algorithm 3 line 1: the last matched event (null if none) and its aggregate
  private var lastEv: Ev = null
  private var lastAgg = Agg.zero
  private var finalAgg = Agg.zero

  restore.foreach { s =>
    s.tip.foreach { t => lastEv = t.toEv; lastAgg = t.agg }
    finalAgg = s.finalAgg
  }

  private def adjacent(e: Ev): Boolean =
    lastEv != null && info.preds(e.etype).contains(lastEv.etype) &&
      AdjPred.holds(preds, lastEv, e)

  def onEvent(e: Ev): Unit = {
    val tpe = e.etype
    val isStart = info.contains(tpe) && info.isStart(tpe)
    val isAdj = info.contains(tpe) && adjacent(e)
    if (isStart || isAdj) { // isMatched (line 3)
      var s = if (isStart) Agg.startUnit else Agg.zero // line 4
      if (isAdj) s = Agg.merge(s, lastAgg)             // line 5
      val eAgg = Agg.extend(s, e.value, tpe == target)
      if (info.isEnd(tpe)) finalAgg = Agg.merge(finalAgg, eAgg) // line 6
      lastEv = e; lastAgg = eAgg                                // line 7
    } else if (cont) {
      // lines 8–9: an unmatched event invalidates all partial trends
      lastEv = null
    }
    // under NEXT, unmatched events are irrelevant and skipped
  }

  def result: Agg = finalAgg // line 10
  def liveUnits: Long = 2L   // final aggregate + last event's aggregate
  def peakUnits: Long = 2L
  def snapshot: PatternState = PatternState(
    Option(lastEv).map(e => StoredEv(e.sid, e.time, e.etype, e.value, lastAgg)), finalAgg)
}
