package repro.core

/** Mixed-grained aggregator (paper §5, Algorithm 2, Theorem 5.1; Table 8
  * middle column): for ANY-semantics queries *with* adjacent-event
  * predicates. Types whose adjacency to a successor type is restricted by a
  * predicate (T_e) keep one aggregate per stored event; all other types
  * (T_t) keep one aggregate per type. Space Θ(t+n_e).
  *
  * Runs on the query's [[Plan]]. The stored events of a T_e type with a
  * successor pair whose predicates are all comparisons are also kept in a
  * [[ValueIndex]], which merges that pair's adjacent predecessors in
  * O(log n_e): time O(n·(t + log n_e)) for such queries, against the paper's
  * O(n·(t+n_e)) scan, with the same results. A pair with any other predicate
  * (`AdjPred.Sel`) scans the stored events. Events arrive in their
  * substream's order, so every stored event is earlier than the current one.
  */
final class MixedGrained(query: TrendQuery, restore: Option[MixedState] = None)
    extends TrendAggregator[MixedState] {
  import AggBuf.Width
  private val plan = query.plan

  /** Compile-time split (Algorithm 2 lines 1–4). */
  val eventGrained: Set[String] = plan.eventGrainedTypes
  val typeGrained: Set[String] = plan.typeGrainedTypes
  private val typeSlots = typeGrained.size.toLong

  private val slots = AggBuf.zeros(plan.n) // T_t types only
  // the stored T_e events, column-wise in arrival order; aggregates at `j * Width`
  private var stored = 0
  private var types = Array.emptyIntArray
  private var values = Array.emptyDoubleArray
  private var aggs = Array.emptyDoubleArray
  private val index = new Array[ValueIndex](plan.n)
  private val acc = new AggBuf
  private val finalAgg = new AggBuf // used when end(P) is event-grained (line 14)

  restore.foreach { s =>
    s.typeAggs.foreach { case (t, a) => AggBuf.write(slots, plan.id(t) * Width, a) }
    s.events.foreach { p => acc.set(p.agg); store(plan.id(p.etype), p.value) }
    finalAgg.set(s.finalAgg)
  }

  def onEvent(e: Ev): Unit = {
    val t = plan.id(e.etype)
    if (t < 0) return
    val v = e.value
    acc.reset(t == plan.start)
    val ps = plan.preds(t)
    var scan = false
    var i = 0
    while (i < ps.length) {
      val p = ps(i)
      if (!plan.eventGrained(p)) acc.add(slots, p * Width) // type-grained predecessors (line 8)
      else if (plan.ranged(p, t)) { if (index(p) != null) index(p).query(plan.mask(p, t), v, acc) }
      else scan = true
      i += 1
    }
    // event-grained predecessors of non-ranged pairs: the stored events
    // satisfying the predicates (lines 9–10)
    if (scan) {
      var j = 0
      while (j < stored) {
        val p = types(j)
        if (plan.follows(p, t) && !plan.ranged(p, t) && plan.holds(p, t, values(j), v))
          acc.add(aggs, j * Width)
        j += 1
      }
    }
    acc.extend(v, t == plan.target)
    if (!plan.eventGrained(t)) {
      acc.addTo(slots, t * Width) // lines 11–13
    } else {
      // store only events that end at least one trend — zero-count events
      // can never contribute to a successor (counts are immutable)
      if (acc.count != 0) store(t, v)
      if (t == plan.end) finalAgg.add(acc) // line 14
    }
  }

  def onEvents(events: collection.IndexedSeq[Ev]): Unit = {
    var i = 0
    while (i < events.length) { onEvent(events(i)); i += 1 }
  }

  /** Store an event of T_e type t whose aggregate is `acc`. */
  private def store(t: Int, v: Double): Unit = {
    if (stored == types.length) {
      val cap = math.max(8, 2 * stored)
      types = java.util.Arrays.copyOf(types, cap)
      values = java.util.Arrays.copyOf(values, cap)
      aggs = java.util.Arrays.copyOf(aggs, cap * Width)
    }
    types(stored) = t; values(stored) = v
    acc.store(aggs, stored * Width)
    stored += 1
    if (plan.indexed(t)) {
      if (index(t) == null) index(t) = new ValueIndex
      index(t).insert(v, acc)
    }
  }

  /** Lines 15–16: end type's slot if type-grained, else the running final. */
  def result: Agg =
    if (plan.eventGrained(plan.end)) finalAgg.toAgg else AggBuf.read(slots, plan.end * Width)

  def liveUnits: Long = typeSlots + stored + 1
  def snapshot: MixedState = MixedState(
    typeGrained.iterator.map(t => t -> AggBuf.read(slots, plan.id(t) * Width)).toMap,
    Vector.tabulate(stored)(j =>
      StoredEv(plan.types(types(j)), values(j), AggBuf.read(aggs, j * Width))),
    finalAgg.toAgg)
}
