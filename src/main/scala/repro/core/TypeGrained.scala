package repro.core

/** Type-grained aggregator (paper §4, Algorithm 1, Theorem 4.1; Table 8
  * left column): for ANY-semantics queries without adjacent-event
  * predicates, every previously matched event of a predecessor type is
  * adjacent to a new event, so one aggregate per event type suffices.
  * Time O(n·l), space Θ(l). Runs on the query's [[Plan]]; an event
  * allocates nothing.
  */
final class TypeGrained(query: TrendQuery, restore: Option[TypeState] = None)
    extends TrendAggregator[TypeState] {
  import AggBuf.Width
  private val plan = query.plan

  /** H: the aggregate of all (partial) trends ending at an event of type t
    * at `t * Width` (Algorithm 1 lines 1–2). */
  private val slots = AggBuf.zeros(plan.n)
  restore.foreach(_.typeAggs.foreach { case (t, a) => AggBuf.write(slots, plan.id(t) * Width, a) })
  private val acc = new AggBuf

  def onEvent(e: Ev): Unit = {
    val t = plan.id(e.etype)
    if (t < 0) return // irrelevant type: skipped under ANY
    // e.count/… = Σ over predecessor types (lines 5–6), +1 trend if start (line 4)
    acc.reset(t == plan.start)
    val ps = plan.preds(t)
    var i = 0
    while (i < ps.length) { acc.add(slots, ps(i) * Width); i += 1 }
    acc.extend(e.value, t == plan.target)
    // E.count += e.count (lines 7–8)
    acc.addTo(slots, t * Width)
  }

  def onEvents(events: collection.IndexedSeq[Ev]): Unit = {
    var i = 0
    while (i < events.length) { onEvent(events(i)); i += 1 }
  }

  /** Final aggregate = end type's slot (line 9): only end-type events
    * finish trends. */
  def result: Agg = AggBuf.read(slots, plan.end * Width)
  def liveUnits: Long = plan.n.toLong
  def snapshot: TypeState =
    TypeState(plan.types.indices.map(t => plan.types(t) -> AggBuf.read(slots, t * Width)).toMap)
}
