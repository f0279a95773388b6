package repro.core

import scala.collection.mutable

/** Type-grained aggregator (paper §4, Algorithm 1, Theorem 4.1; Table 8
  * left column): for ANY-semantics queries without adjacent-event
  * predicates, every previously matched event of a predecessor type is
  * adjacent to a new event, so one aggregate per event type suffices.
  * Time O(n·l), space Θ(l).
  */
final class TypeGrained(val query: TrendQuery, restore: Option[TypeState] = None)
    extends TrendAggregator[TypeState] {
  private val info = query.info
  private val target = query.target

  /** H: event type -> aggregate of all (partial) trends ending at an event
    * of that type (Algorithm 1 lines 1–2). */
  private val slots = mutable.Map.empty[String, Agg]
  info.types.foreach(t => slots(t) = Agg.zero)
  restore.foreach(s => s.typeAggs.foreach { case (t, a) => slots(t) = a })

  def onEvent(e: Ev): Unit = {
    val tpe = e.etype
    if (!info.contains(tpe)) return // irrelevant type: skipped under ANY
    // e.count/… = Σ over predecessor types (lines 5–6), +1 trend if start (line 4)
    var s = if (info.isStart(tpe)) Agg.startUnit else Agg.zero
    info.preds(tpe).foreach(t => s = Agg.merge(s, slots(t)))
    val eAgg = Agg.extend(s, e.value, tpe == target)
    // E.count += e.count (lines 7–8)
    slots(tpe) = Agg.merge(slots(tpe), eAgg)
  }

  /** Final aggregate = end type's slot (line 9): only end-type events
    * finish trends. */
  def result: Agg = slots(info.end)
  def liveUnits: Long = info.types.size.toLong
  def peakUnits: Long = liveUnits
  def snapshot: TypeState = TypeState(slots.toMap)
}
