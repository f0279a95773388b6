package repro.core

import scala.collection.mutable

/** Mixed-grained aggregator (paper §5, Algorithm 2, Theorem 5.1; Table 8
  * middle column): for ANY-semantics queries *with* adjacent-event
  * predicates. Types whose adjacency to a successor type is restricted by a
  * predicate (T_e) keep one aggregate per stored event; all other types
  * (T_t) keep one aggregate per type. Time O(n·(t+n_e)), space Θ(t+n_e).
  */
final class MixedGrained(val query: TrendQuery, restore: Option[MixedState] = None)
    extends TrendAggregator[MixedState] {
  private val info = query.info
  private val target = query.target
  private val preds = query.adjPreds

  /** Compile-time split (Algorithm 2 lines 1–4). */
  val eventGrained: Set[String] = PredicateClassifier.eventGrainedTypes(info, preds)
  val typeGrained: Set[String] = info.typeSet -- eventGrained

  private val slots = mutable.Map.empty[String, Agg]
  typeGrained.foreach(t => slots(t) = Agg.zero)
  private val stored = mutable.ArrayBuffer.empty[StoredEv]
  private var finalAgg = Agg.zero // used when end(P) is event-grained (line 14)
  private var peak = 0L

  restore.foreach { s =>
    s.typeAggs.foreach { case (t, a) => slots(t) = a }
    stored ++= s.events
    finalAgg = s.finalAgg
    peak = liveUnits
  }

  def onEvent(e: Ev): Unit = {
    val tpe = e.etype
    if (!info.contains(tpe)) return
    var s = if (info.isStart(tpe)) Agg.startUnit else Agg.zero
    val predTs = info.preds(tpe)
    // type-grained predecessors (line 8)
    predTs.foreach(t => if (typeGrained(t)) s = Agg.merge(s, slots(t)))
    // event-grained predecessors: only stored events adjacent to e, i.e.
    // earlier and satisfying the predicates (lines 9–10)
    if (predTs.exists(eventGrained)) {
      val i = stored.iterator
      while (i.hasNext) {
        val p = i.next()
        if (predTs(p.etype) && eventGrained(p.etype) &&
            (p.time < e.time || (p.time == e.time && p.sid < e.sid)) &&
            AdjPred.holds(preds, p.toEv, e))
          s = Agg.merge(s, p.agg)
      }
    }
    val eAgg = Agg.extend(s, e.value, tpe == target)
    if (typeGrained(tpe)) {
      slots(tpe) = Agg.merge(slots(tpe), eAgg) // lines 11–13
    } else {
      // store only events that end at least one trend — zero-count events
      // can never contribute to a successor (counts are immutable)
      if (!eAgg.isZero) stored += StoredEv(e.sid, e.time, tpe, e.value, eAgg)
      if (info.isEnd(tpe)) finalAgg = Agg.merge(finalAgg, eAgg) // line 14
    }
    peak = math.max(peak, liveUnits)
  }

  /** Lines 15–16: end type's slot if type-grained, else the running final. */
  def result: Agg =
    if (typeGrained(info.end)) slots(info.end) else finalAgg

  def liveUnits: Long = typeGrained.size.toLong + stored.size + 1
  def peakUnits: Long = math.max(peak, liveUnits)
  def snapshot: MixedState = MixedState(slots.toMap, stored.toVector, finalAgg)
}
