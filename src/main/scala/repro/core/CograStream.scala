package repro.core

import org.apache.spark.sql.{Dataset, Encoder, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

/** Structured Streaming driver for Cogra.
  *
  * The paper's incremental model — "update aggregates on event arrival,
  * discard the event" — maps 1:1 onto keyed state in
  * `flatMapGroupsWithState`: the state per (group, window) key is exactly
  * the state of the query's granularity ([[AggState]]): type-grained
  * aggregate slots, the stored T_e events of the mixed granularity, or the
  * pattern-grained last-event + final aggregates. Each micro-batch folds
  * its events into the state and emits the current aggregate (Update mode);
  * per-key results are monotone in `count`, so the row with the maximal
  * count is the final answer for a window.
  *
  * In-order arrival per key across micro-batches is assumed, mirroring the
  * paper's time-driven scheduler (§8); within a batch events are sorted.
  */
object CograStream {

  def run(spark: SparkSession, events: Dataset[Ev], q: TrendQuery): Dataset[WinResult] = {
    import spark.implicits._
    Granularity.select(q) match {
      case Granularity.TypeG    => fold[TypeState](events, q, new TypeGrained(q, _))
      case Granularity.MixedG   => fold[MixedState](events, q, new MixedGrained(q, _))
      case Granularity.PatternG => fold[PatternState](events, q, new PatternGrained(q, _))
    }
  }

  private def fold[S <: AggState : Encoder](events: Dataset[Ev], q: TrendQuery,
      aggregator: Option[S] => TrendAggregator[S]): Dataset[WinResult] = {
    import events.sparkSession.implicits._
    Substreams.grouped(events, q.window)
      .flatMapGroupsWithState[S, WinResult](OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (key: (String, Long), it: Iterator[(Long, Ev)], state: GroupState[S]) =>
          val agg = aggregator(state.getOption)
          agg.onEvents(Substreams.sorted(it))
          state.update(agg.snapshot)
          val r = agg.result
          Iterator.single(WinResult(key._1, key._2, r.count, r.countE, r.sum, r.min, r.max, r.avg))
      }
  }
}
