package repro.core

/** Pattern-grained aggregator (paper §6, Algorithm 3, Theorem 6.2; Table 8
  * right column): under NEXT/CONT an event has at most one predecessor
  * event (Theorem 6.1), so only the final aggregate and the last matched
  * event's type, value and aggregate are kept. Time O(n), space O(1). Runs
  * on the query's [[Plan]]; an event allocates nothing.
  *
  * Fidelity note (see DESIGN.md): this is the paper's single-tip operational
  * semantics; a new start-type event replaces the tip (Algorithm 3 line 7).
  */
final class PatternGrained(query: TrendQuery, restore: Option[PatternState] = None)
    extends TrendAggregator[PatternState] {
  require(query.semantics == Semantics.NEXT || query.semantics == Semantics.CONT,
    "pattern granularity applies to NEXT/CONT only (Table 4)")
  private val plan = query.plan
  private val cont = query.semantics == Semantics.CONT

  // Algorithm 3 line 1: the last matched event's type id (-1 if none),
  // value and aggregate
  private var lastType = -1
  private var lastValue = 0.0
  private val tip = new AggBuf
  private val finalAgg = new AggBuf

  restore.foreach { s =>
    s.tip.foreach { t => lastType = plan.id(t.etype); lastValue = t.value; tip.set(t.agg) }
    finalAgg.set(s.finalAgg)
  }

  def onEvent(e: Ev): Unit = {
    val t = plan.id(e.etype)
    val isStart = t == plan.start
    val isAdj = t >= 0 && lastType >= 0 && plan.follows(lastType, t) &&
      plan.holds(lastType, t, lastValue, e.value)
    if (isStart || isAdj) { // isMatched (line 3)
      // lines 4–5 in place: the tip becomes merge(start unit, tip) or the
      // start unit alone (merge adds and takes min/max field by field, so
      // the order of its operands does not change the result)
      if (!isAdj) tip.reset(start = true)
      else if (isStart) tip.add(1, 0, 0, Double.PositiveInfinity, Double.NegativeInfinity)
      tip.extend(e.value, t == plan.target)
      if (t == plan.end) finalAgg.add(tip) // line 6
      lastType = t; lastValue = e.value    // line 7
    } else if (cont) {
      // lines 8–9: an unmatched event invalidates all partial trends
      lastType = -1
    }
    // under NEXT, unmatched events are irrelevant and skipped
  }

  def onEvents(events: collection.IndexedSeq[Ev]): Unit = {
    var i = 0
    while (i < events.length) { onEvent(events(i)); i += 1 }
  }

  def result: Agg = finalAgg.toAgg // line 10
  def liveUnits: Long = 2L   // final aggregate + last event's aggregate
  def snapshot: PatternState = PatternState(
    Option.when(lastType >= 0)(StoredEv(plan.types(lastType), lastValue, tip.toAgg)), result)
}
