package repro.core

import org.apache.spark.sql.{Dataset, Encoder, KeyValueGroupedDataset}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The substreams of paper §7: GROUP-BY/equivalence predicates partition the
  * stream, and sliding windows cut each group's events into one substream
  * per (group, window). Every driver keys events with [[Substreams.byGroup]],
  * so Spark shuffles each event once, on its group column, and hands a
  * group's events to one function call; that call cuts the group's
  * (time, sid)-ordered events with one cutter, [[Substreams.Windows]]:
  *
  *  - Batch (`map`, shared by `CograBatch` and `SparkRunner`):
  *    `flatMapSortedGroups` gives each group's events in (time, sid) order,
  *    and the cutter collects each window's events into a buffer. A
  *    substream is an immutable `ArraySeq[Ev]` in (time, sid) order, built
  *    only here; every consumer (`TrendAggregator.onEvents`, `Cogra.run`,
  *    `TrendEngine.run`) takes it as it is, without a copy.
  *  - Streaming (`CograStream`): `flatMapGroupsWithState`; a group's open
  *    windows hold live aggregators, restored from and written back to the
  *    group's one state row.
  */
object Substreams {

  /** The events keyed by their `group` column. */
  def byGroup(events: Dataset[Ev]): KeyValueGroupedDataset[String, Ev] = {
    import events.sparkSession.implicits._
    events.groupBy($"group").as[String, Ev]
  }

  /** One output row per non-empty substream: `f(group, wid, events)`. */
  def map[R: Encoder](events: Dataset[Ev], win: WindowSpec)(f: (String, Long, ArraySeq[Ev]) => R): Dataset[R] = {
    import events.sparkSession.implicits._
    byGroup(events).flatMapSortedGroups($"time", $"sid") { (g, it) =>
      val out = mutable.ArrayBuffer.empty[R]
      val windows = new Windows[mutable.ArrayBuilder[Ev]](win, () => mutable.ArrayBuilder.make[Ev],
        _ += _, (wid, b) => out += f(g, wid, ArraySeq.unsafeWrapArray(b.result())))
      it.foreach(windows.push)
      windows.closeAll()
      out
    }
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
