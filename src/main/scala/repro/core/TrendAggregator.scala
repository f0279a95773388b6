package repro.core

/** Incremental trend aggregator over one substream (one group, one window),
  * fed its events in order: every event already fed is earlier than the
  * next one (a group's events are ordered by (time, sid) once, in
  * [[Block.merge]]). Implementations are the paper's three granularities
  * (§§4–6); `S` is the granularity's streaming state. */
trait TrendAggregator[S <: AggState] {
  /** Process one event and discard it (unless the granularity must store it). */
  def onEvent(e: Ev): Unit
  /** Process events in order. Each aggregator has its own copy of this
    * loop, so that the JIT sees one receiver and inlines `onEvent`. */
  def onEvents(events: collection.IndexedSeq[Ev]): Unit
  /** Aggregate over all *finished* trends seen so far. */
  def result: Agg
  /** Memory proxy: aggregates + stored events currently retained. */
  def liveUnits: Long
  /** Peak of liveUnits over the run. No aggregator drops state (type and
    * pattern granularity hold a fixed number of aggregates, mixed granularity
    * stores events and never drops them), so the peak is the current count. */
  final def peakUnits: Long = liveUnits
  /** Serializable state for the streaming driver. */
  def snapshot: S
}
