package repro.core

import org.apache.spark.sql.{Dataset, Encoder, KeyValueGroupedDataset}
import scala.collection.immutable.ArraySeq

/** The substreams of paper §7, shared by `CograBatch`, `CograStream` and
  * `SparkRunner`: each event is replicated into its sliding windows and
  * grouped on (group, window), and a key's events are handed over in
  * (time, sid) order. GROUP-BY/equivalence predicates and windows thus
  * become shuffle keys.
  *
  * A substream is an immutable `ArraySeq[Ev]` over the sorted array, built
  * only by `sorted`; every consumer (`TrendAggregator.onEvents`,
  * `Cogra.run`, `TrendEngine.run`) takes it as it is, without a copy.
  */
object Substreams {

  /** Sliding-window explode and `groupByKey` on (group, window); `sorted`
    * turns a key's rows into its time-ordered substream. */
  def grouped(events: Dataset[Ev], win: WindowSpec): KeyValueGroupedDataset[(String, Long), (Long, Ev)] = {
    import events.sparkSession.implicits._
    events
      .flatMap(e => win.windowsOf(e.time).map(wid => (wid, e)))
      .groupByKey { case (wid, e) => (e.group, wid) }
  }

  def sorted(it: Iterator[(Long, Ev)]): ArraySeq[Ev] = {
    val evs = it.map(_._2).toArray
    scala.util.Sorting.stableSort(evs, (a: Ev, b: Ev) => Ev.ordering.lt(a, b))
    ArraySeq.unsafeWrapArray(evs) // the array is not referenced elsewhere
  }

  /** One output row per substream: `f(group, wid, events)`. */
  def map[R: Encoder](events: Dataset[Ev], win: WindowSpec)(f: (String, Long, ArraySeq[Ev]) => R): Dataset[R] =
    grouped(events, win).mapGroups { (key: (String, Long), it: Iterator[(Long, Ev)]) =>
      f(key._1, key._2, sorted(it))
    }
}
