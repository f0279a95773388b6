package repro.core

/** Cogra runtime executor facade (paper Fig. 3): the static query analyzer
  * (pattern analysis + predicate classification) picks the coarsest sound
  * granularity (Table 4) and instantiates the matching aggregator. */
object Cogra {

  /** `restore` must be a snapshot of an aggregator for the same query. */
  def aggregator(q: TrendQuery, restore: Option[AggState] = None): TrendAggregator[_ <: AggState] =
    Granularity.select(q) match {
      case Granularity.TypeG    => new TypeGrained(q, restore.map(_.asInstanceOf[TypeState]))
      case Granularity.MixedG   => new MixedGrained(q, restore.map(_.asInstanceOf[MixedState]))
      case Granularity.PatternG => new PatternGrained(q, restore.map(_.asInstanceOf[PatternState]))
    }

  /** Run over one time-ordered substream. */
  def run(events: collection.IndexedSeq[Ev], q: TrendQuery): Agg = {
    val a = aggregator(q)
    a.onEvents(events)
    a.result
  }
}
