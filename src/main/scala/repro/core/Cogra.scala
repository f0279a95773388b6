package repro.core

/** Cogra runtime executor facade (paper Fig. 3): the static query analyzer
  * (pattern analysis + predicate classification) picks the coarsest sound
  * granularity (Table 4) and instantiates the matching aggregator. */
object Cogra {

  def aggregator(q: TrendQuery): TrendAggregator[_ <: AggState] =
    Granularity.select(q) match {
      case Granularity.TypeG    => new TypeGrained(q)
      case Granularity.MixedG   => new MixedGrained(q)
      case Granularity.PatternG => new PatternGrained(q)
    }

  /** Run over one time-ordered substream. */
  def run(events: collection.IndexedSeq[Ev], q: TrendQuery): Agg = {
    val a = aggregator(q)
    a.onEvents(events)
    a.result
  }
}
