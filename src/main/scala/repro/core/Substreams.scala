package repro.core

import org.apache.spark.sql.{Dataset, Encoder, KeyValueGroupedDataset}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** The substreams of paper §7: GROUP-BY/equivalence predicates partition the
  * stream, and sliding windows cut each group's events into one substream
  * per (group, window). A substream is an immutable `ArraySeq[Ev]` in
  * (time, sid) order, built only here; every consumer
  * (`TrendAggregator.onEvents`, `Cogra.run`, `TrendEngine.run`) takes it as
  * it is, without a copy. Two paths build them:
  *
  *  - Batch (`map`, shared by `CograBatch` and `SparkRunner`): each event is
  *    shuffled once, on its group, and each partition is sorted by
  *    (group, time, sid). One sweep over a partition then cuts each group's
  *    windows as it goes, so a group's windows are cut in one task.
  *  - Streaming (`grouped` and `sorted`, used by `CograStream`, whose keyed
  *    state lives per (group, window)): each event is replicated into its
  *    windows and grouped on (group, window); `sorted` orders a key's rows.
  */
object Substreams {

  /** One output row per non-empty substream: `f(group, wid, events)`. */
  def map[R: Encoder](events: Dataset[Ev], win: WindowSpec)(f: (String, Long, ArraySeq[Ev]) => R): Dataset[R] = {
    import events.sparkSession.implicits._
    events.repartition($"group")
      .sortWithinPartitions($"group", $"time", $"sid")
      .mapPartitions(it => new Sweep(it, win, f))
  }

  /** Cuts the windows of (group, time, sid)-sorted events. It keeps only the
    * current group's open windows, the consecutive window ids `lo`,
    * `lo + slide`, ..., `hi`, with one buffer each. An event first closes
    * every open window that ends at or before its time (all of them if it
    * starts a new group), joins the windows still open, and opens those
    * after `hi` up to its `lastWindow`. A window is opened only by an event
    * it holds, so no substream is empty. */
  private final class Sweep[R](in: Iterator[Ev], win: WindowSpec, f: (String, Long, ArraySeq[Ev]) => R)
      extends scala.collection.AbstractIterator[R] {
    private val open = mutable.ArrayDeque.empty[mutable.ArrayBuilder[Ev]]
    private var lo = 0L
    private var hi = 0L
    private var group: String = _
    private val done = mutable.Queue.empty[R]

    def hasNext: Boolean = {
      while (done.isEmpty && (in.hasNext || open.nonEmpty))
        if (in.hasNext) push(in.next()) else close(open.size)
      done.nonEmpty
    }

    def next(): R = if (hasNext) done.dequeue() else Iterator.empty.next()

    private def push(e: Ev): Unit = {
      val first = win.firstWindow(e.time)
      val last = win.lastWindow(e.time)
      if (e.group != group) { close(open.size); group = e.group }
      while (open.nonEmpty && lo < first) close(1)
      var i = 0
      while (i < open.size) { open(i) += e; i += 1 }
      if (open.isEmpty) { lo = first; hi = first - win.slide }
      while (hi < last) {
        hi += win.slide
        val b = mutable.ArrayBuilder.make[Ev]
        b += e
        open += b
      }
    }

    /** Closes the `n` oldest open windows. */
    private def close(n: Int): Unit =
      for (_ <- 0 until n) {
        done += f(group, lo, ArraySeq.unsafeWrapArray(open.removeHead().result()))
        lo += win.slide
      }
  }

  /** Streaming path: sliding-window explode and `groupByKey` on
    * (group, window). */
  private[core] def grouped(events: Dataset[Ev], win: WindowSpec): KeyValueGroupedDataset[(String, Long), (Long, Ev)] = {
    import events.sparkSession.implicits._
    events
      .flatMap(e => win.windowsOf(e.time).map(wid => (wid, e)))
      .groupByKey { case (wid, e) => (e.group, wid) }
  }

  /** A key's rows of `grouped` as its (time, sid)-ordered substream. */
  private[core] def sorted(it: Iterator[(Long, Ev)]): ArraySeq[Ev] = {
    val evs = it.map(_._2).toArray
    scala.util.Sorting.stableSort(evs, (a: Ev, b: Ev) => Ev.ordering.lt(a, b))
    ArraySeq.unsafeWrapArray(evs) // the array is not referenced elsewhere
  }
}
