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

  /** The events of `group`'s `blocks`, sorted by (time, sid). Every event
    * shares one `String` per type name and `group` itself. */
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
  * ([[Block.merge]]) and cuts them with one cutter, [[Substreams.Windows]]:
  *
  *  - Batch (`map`, shared by `CograBatch` and `SparkRunner`): the cutter
  *    collects each window's events into a buffer. A substream is an
  *    immutable `ArraySeq[Ev]` in (time, sid) order, built only here; every
  *    consumer (`TrendAggregator.onEvents`, `Cogra.run`, `TrendEngine.run`)
  *    takes it as it is, without a copy.
  *  - Streaming (`CograStream`): `flatMapGroupsWithState`; a group's open
  *    windows hold live aggregators, restored from and written back to the
  *    group's one state row.
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
      val out = mutable.ArrayBuffer.empty[R]
      val windows = new Windows[mutable.ArrayBuilder[Ev]](win, () => mutable.ArrayBuilder.make[Ev],
        _ += _, (wid, b) => out += f(g, wid, ArraySeq.unsafeWrapArray(b.result())))
      Block.merge(g, blocks).foreach(windows.push)
      windows.closeAll()
      out
    }

  /** The open windows of one group, pushed its events in (time, sid) order:
    * the consecutive window ids `lo`, `lo + slide`, ..., oldest first, each
    * holding a `W` made by `make`. An event first hands every window that
    * ends at or before its time to `closed`, then opens the windows after
    * the newest up to its `lastWindow`, so the open windows are exactly
    * those that hold it, and is fed to each. A window is opened only by an
    * event it holds. No id past the newest open window is computed, so
    * windows near `Long.MaxValue` do not overflow. */
  private[core] final class Windows[W](win: WindowSpec, make: () => W, feed: (W, Ev) => Unit,
                                       closed: (Long, W) => Unit) {
    val open = mutable.ArrayDeque.empty[W]
    /** The id of the oldest open window. */
    var lo = 0L

    def push(e: Ev): Unit = {
      val first = win.firstWindow(e.time)
      val last = win.lastWindow(e.time)
      while (open.nonEmpty && lo < first) close()
      if (open.isEmpty) { lo = first; open += make() }
      while (lo + (open.size - 1) * win.slide < last) open += make()
      var i = 0
      while (i < open.size) { feed(open(i), e); i += 1 }
    }

    def closeAll(): Unit = while (open.nonEmpty) close()

    private def close(): Unit = {
      closed(lo, open.removeHead())
      if (open.nonEmpty) lo += win.slide
    }
  }
}
