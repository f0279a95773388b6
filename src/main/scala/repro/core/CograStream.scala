package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.runtime.universe.TypeTag

/** A group's streaming state: its last processed event's (time, sid) and one
  * granularity snapshot per open window, keyed by window id. */
final case class CograState[S <: AggState](lastTime: Long, lastSid: Long, windows: Map[Long, S])

/** Structured Streaming driver for Cogra.
  *
  * Each group is an independent substream (§7) whose events are processed
  * in time order (§8), so its open windows are all the state it needs: the
  * state is keyed on the group column ([[Substreams.byGroup]],
  * `flatMapGroupsWithState`, Update mode, no timeout, no watermark), and
  * each input partition's events of a group cross the shuffle as one
  * [[Block]]. A micro-batch merges a group's blocks into its events in
  * (time, sid) order ([[Block.merge]]) and cuts them into windows with the
  * batch path's [[Substreams.cut]]. Each window's range of events runs
  * through its aggregator, restored if the window was open, new otherwise.
  * It emits the running aggregate of every window that got events in the
  * micro-batch, and keeps the snapshot of those that hold its last event,
  * which are the ones still open; any other window leaves the state. An
  * event not after its group's last processed (time, sid) from an earlier
  * micro-batch fails the micro-batch (`IllegalArgumentException`) rather
  * than being folded in as the newest, as a repeated (time, sid) within the
  * micro-batch does ([[Block.merge]]).
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
          val open = state.getOption.fold(Map.empty[Long, S]) { s =>
            val e = evs.head
            require(e.time > s.lastTime || (e.time == s.lastTime && e.sid > s.lastSid),
              s"late event $e: not after group $group's last processed (time, sid) (${s.lastTime}, ${s.lastSid})")
            s.windows
          }
          val out = mutable.ArrayBuffer.empty[WinResult]
          val kept = Map.newBuilder[Long, S]
          Substreams.cut(evs, q.window) { (wid, from, until) =>
            val a = aggregator(open.get(wid))
            a.onEvents(ArraySeq.unsafeWrapArray(evs.slice(from, until)))
            val r = a.result
            out += WinResult(group, wid, r.count, r.countE, r.sum, r.min, r.max, r.avg)
            if (until == evs.length) kept += wid -> a.snapshot
          }
          state.update(CograState(evs.last.time, evs.last.sid, kept.result()))
          out.iterator
      }
  }
}
