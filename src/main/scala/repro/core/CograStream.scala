package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import scala.collection.mutable
import scala.reflect.runtime.universe.TypeTag

/** A group's streaming state: its last processed event's (time, sid), the id
  * of its oldest open window, and one granularity snapshot per open window,
  * oldest first. */
final case class CograState[S <: AggState](lastTime: Long, lastSid: Long, lo: Long, windows: Seq[S])

/** Structured Streaming driver for Cogra.
  *
  * Each group is an independent substream (§7) whose events are processed
  * in time order (§8), so its open windows are all the state it needs: the
  * state is keyed on the group column ([[Substreams.byGroup]],
  * `flatMapGroupsWithState`, Update mode, no timeout, no watermark), and
  * each input partition's events of a group cross the shuffle as one
  * [[Block]]. A micro-batch merges a group's blocks into its events in
  * (time, sid) order ([[Block.merge]]), restores its open windows'
  * aggregators and pushes the events through the batch path's cutter
  * ([[Substreams.Windows]]); windows an event closes leave the state. It
  * emits the running aggregate of every window that got events in the
  * micro-batch, those it closed included, and writes back the open ones.
  * An event not after its group's last processed (time, sid) from an
  * earlier micro-batch fails the micro-batch (`IllegalArgumentException`)
  * rather than being folded in as the newest.
  */
object CograStream {

  def run(spark: SparkSession, events: Dataset[Ev], q: TrendQuery): Dataset[WinResult] =
    Granularity.select(q) match {
      case Granularity.TypeG    => fold[TypeState](events, q, new TypeGrained(q, _))
      case Granularity.MixedG   => fold[MixedState](events, q, new MixedGrained(q, _))
      case Granularity.PatternG => fold[PatternState](events, q, new PatternGrained(q, _))
    }

  private def fold[S <: AggState : TypeTag](events: Dataset[Ev], q: TrendQuery,
      aggregator: Option[S] => TrendAggregator[S]): Dataset[WinResult] = {
    import events.sparkSession.implicits._
    Substreams.byGroup(events)
      .flatMapGroupsWithState[CograState[S], WinResult](OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (group: String, blocks: Iterator[Block], state: GroupState[CograState[S]]) =>
          val evs = Block.merge(group, blocks)
          val out = mutable.ArrayBuffer.empty[WinResult]
          var fed = false // restored windows closed by the first event got none of this batch's events
          val windows = new Substreams.Windows[TrendAggregator[S]](q.window, () => aggregator(None), _.onEvent(_),
            (wid, a) => if (fed) { val r = a.result; out += WinResult(group, wid, r.count, r.countE, r.sum, r.min, r.max, r.avg) })
          state.getOption.foreach { s =>
            val e = evs.head
            require(e.time > s.lastTime || (e.time == s.lastTime && e.sid > s.lastSid),
              s"late event $e: not after group $group's last processed (time, sid) (${s.lastTime}, ${s.lastSid})")
            windows.lo = s.lo
            windows.open ++= s.windows.map(w => aggregator(Some(w)))
          }
          evs.foreach { e => windows.push(e); fed = true }
          state.update(CograState(evs.last.time, evs.last.sid, windows.lo, windows.open.map(_.snapshot).toSeq))
          windows.closeAll()
          out.iterator
      }
  }
}
