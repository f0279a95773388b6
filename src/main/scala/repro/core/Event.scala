package repro.core

/** A primitive event on the stream (paper §2.1).
  *
  * @param sid   deterministic sequence id; breaks timestamp ties so every
  *              substream has a total order (stands in for the paper's
  *              stream transactions, §8). A group's events are sorted by
  *              (time, sid) once, and a repeated pair is rejected
  *              ([[Block.merge]]); aggregators and baselines then take a
  *              substream in the order given
  * @param time  application time stamp (seconds, non-negative)
  * @param etype event type name (paper: e.type)
  * @param group value of the grouping / equivalence-predicate attributes;
  *              partitions the stream into independent substreams (§7)
  * @param value the single numeric attribute aggregated and compared by
  *              adjacent-event predicates (rate / price / waiting time)
  */
final case class Ev(sid: Long, time: Long, etype: String, group: String, value: Double)

object Ev {
  /** Total order within a substream: by time, ties by sequence id. */
  implicit val ordering: Ordering[Ev] = new Ordering[Ev] {
    def compare(a: Ev, b: Ev): Int = {
      val c = java.lang.Long.compare(a.time, b.time)
      if (c != 0) c else java.lang.Long.compare(a.sid, b.sid)
    }
  }

  /** Shorthand used by tests to transcribe streams like Figure 2. */
  def apply(time: Long, etype: String): Ev = Ev(time, time, etype, "g", time.toDouble)
  def apply(time: Long, etype: String, value: Double): Ev = Ev(time, time, etype, "g", value)
}
