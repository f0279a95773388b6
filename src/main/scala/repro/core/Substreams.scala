package repro.core

import org.apache.spark.sql.{Dataset, Encoder, KeyValueGroupedDataset}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The events of one group that one input partition holds, as columns:
  * `sid`, `time` and `value`, and each event's type as an index `etype`
  * into the block's type names `types`. Blocks are what Spark shuffles. */
final case class Block(group: String, types: Array[String], etype: Array[Int], sid: Array[Long],
                       time: Array[Long], value: Array[Double])

object Block {
  /** One block per group of `events`, in no particular order. */
  def of(events: Iterator[Ev]): Iterator[Block] = {
    final class Columns {
      val types = mutable.LinkedHashMap.empty[String, Int]
      val etype = mutable.ArrayBuilder.make[Int]
      val sid, time = mutable.ArrayBuilder.make[Long]
      val value = mutable.ArrayBuilder.make[Double]
    }
    val groups = mutable.HashMap.empty[String, Columns]
    events.foreach { e =>
      val b = groups.getOrElseUpdate(e.group, new Columns)
      b.etype += b.types.getOrElseUpdate(e.etype, b.types.size)
      b.sid += e.sid; b.time += e.time; b.value += e.value
    }
    groups.iterator.map { case (g, b) =>
      Block(g, b.types.keys.toArray, b.etype.result(), b.sid.result(), b.time.result(), b.value.result())
    }
  }

  /** The events of `group`'s `blocks`, sorted by (time, sid): the one order
    * in which every aggregator and baseline takes a substream. Every event
    * shares one `String` per type name and `group` itself. Two events with
    * the same (time, sid) have no order, so they fail the group
    * (`IllegalArgumentException`). */
  def merge(group: String, blocks: Iterator[Block]): Array[Ev] = {
    val names = mutable.HashMap.empty[String, String]
    val out = mutable.ArrayBuilder.make[Ev]
    blocks.foreach { b =>
      val types = b.types.map(t => names.getOrElseUpdate(t, t))
      var i = 0
      while (i < b.sid.length) { out += Ev(b.sid(i), b.time(i), types(b.etype(i)), group, b.value(i)); i += 1 }
    }
    val evs = out.result()
    java.util.Arrays.sort(evs, Ev.ordering)
    var i = 1
    while (i < evs.length) {
      require(Ev.ordering.compare(evs(i - 1), evs(i)) < 0, s"repeated (time, sid) in group $group: ${evs(i)}")
      i += 1
    }
    evs
  }
}

/** The substreams of paper §7: GROUP-BY/equivalence predicates partition the
  * stream, and sliding windows cut each group's events into one substream
  * per (group, window). Batch and streaming key events with
  * [[Substreams.byGroup]]: each input partition combines its events into
  * one [[Block]] per group, Spark shuffles the blocks once, on their group
  * column, and hands a group's blocks to one function call. That call
  * merges them into the group's (time, sid)-ordered events
  * ([[Block.merge]]), in which each window's events are one contiguous
  * range, and [[Substreams.cut]] names the ranges:
  *
  *  - Batch (`map`, shared by `CograBatch` and `SparkRunner`): each window
  *    gets a copy of its range. A substream is an immutable `ArraySeq[Ev]`
  *    in (time, sid) order, built only here; every consumer
  *    (`TrendAggregator.onEvents`, `Cogra.run`, `TrendEngine.run`) takes it
  *    as it is, without a copy.
  *  - Streaming (`CograStream`): `flatMapGroupsWithState`; each range runs
  *    through its window's aggregator, restored from the group's one state
  *    row if the window was open.
  */
object Substreams {

  /** The events as blocks, keyed by their `group` column: at most (input
    * partitions × groups) rows cross the shuffle. */
  def byGroup(events: Dataset[Ev]): KeyValueGroupedDataset[String, Block] = {
    import events.sparkSession.implicits._
    events.mapPartitions(Block.of).groupBy($"group").as[String, Block]
  }

  /** One output row per non-empty substream: `f(group, wid, events)`. */
  def map[R: Encoder](events: Dataset[Ev], win: WindowSpec)(f: (String, Long, ArraySeq[Ev]) => R): Dataset[R] =
    byGroup(events).flatMapGroups { (g, blocks) =>
      val evs = Block.merge(g, blocks)
      val out = mutable.ArrayBuffer.empty[R]
      cut(evs, win)((wid, from, until) => out += f(g, wid, ArraySeq.unsafeWrapArray(evs.slice(from, until))))
      out
    }

  /** The windows of a group's events `evs`, sorted by (time, sid): calls
    * `f(wid, from, until)` once per window that holds an event, oldest
    * first, and that window's events are `evs(from until until)`. An event
    * at time `t` is in window `wid` if `wid <= t` and `t - wid < size`; no
    * window end and no id past the last event's `lastWindow` is computed,
    * so ids near `Long.MaxValue` do not overflow. A negative time fails
    * (`WindowSpec.firstWindow`). */
  def cut(evs: Array[Ev], win: WindowSpec)(f: (Long, Int, Int) => Unit): Unit = if (evs.nonEmpty) {
    val last = win.lastWindow(evs.last.time)
    // invariant: window `wid` holds evs(from), and every event before it is older than `wid`
    var wid = win.firstWindow(evs.head.time)
    var from, until = 0
    while (true) {
      while (until < evs.length && evs(until).time - wid < win.size) until += 1
      f(wid, from, until)
      if (wid == last) return
      wid += win.slide
      while (evs(from).time < wid) from += 1
      // skip the empty windows between a gap's ends
      wid = math.max(wid, win.firstWindow(evs(from).time))
    }
  }
}
