package repro.trendbench

import repro.core.{Ev, WindowSpec}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random

/** Seeded input generation. The shapes follow `repro.streams.EventGen`
  * (stock-like A/B prices on a per-group random walk, transport-like A/B/C
  * with uniform values) but run in plain Scala: its Spark window function
  * would dominate set-up time. */
object Gen {
  private def groupName(g: Int): String = s"g$g"

  /** Counter-based uniform draw in [0, 1): draw `i` of stream `k` for a
    * seed, so that any slice of a stream can be generated on its own. */
  private def unit(seed: Long, i: Long, k: Int): Double = {
    var z = seed * 0x9E3779B97F4A7C15L + i * 0xD1B54A32D192ED03L + k * 0x8CB92BA72F3D8DD7L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    ((z ^ (z >>> 31)) >>> 11) * (1.0 / (1L << 53))
  }

  /** Events `from` until `until` of the stock-like stream: one event per time
    * unit (`sid` = `time`), groups uniform over `groups`, type A with
    * probability 0.75 else B, value on a per-group random walk with steps
    * uniform in [-50, 50). `walk` holds each group's value before `from` and
    * is advanced in place. */
  def stockSlice(seed: Long, groups: Int, from: Long, until: Long, walk: Array[Double]): Array[Ev] = {
    val names = Array.tabulate(groups)(groupName)
    Array.tabulate((until - from).toInt) { j =>
      val i = from + j
      val g = (unit(seed, i, 0) * groups).toInt
      walk(g) += unit(seed, i, 1) * 100.0 - 50.0
      Ev(i, i, if (unit(seed, i, 2) < 0.75) "A" else "B", names(g), walk(g))
    }
  }

  /** The walk's starting value of every group. */
  def walkStart(groups: Int): Array[Double] = Array.fill(groups)(100.0)

  /** One time-ordered substream of `n` stock-like events of group `g`. */
  def stockSubstream(n: Int, g: Int, rnd: Random): ArraySeq[Ev] = {
    var v = 100.0
    ArraySeq.unsafeWrapArray(Array.tabulate(n) { i =>
      v += rnd.nextDouble() * 100.0 - 50.0
      Ev(i.toLong, i.toLong, if (rnd.nextDouble() < 0.75) "A" else "B", groupName(g), v)
    })
  }

  /** One time-ordered substream of `n` transport-like events of group `g`:
    * types A 0.5, B 0.3, C 0.2 (C is outside every benchmark pattern), values
    * uniform in [0, 100). */
  def transportSubstream(n: Int, g: Int, rnd: Random): ArraySeq[Ev] =
    ArraySeq.unsafeWrapArray(Array.tabulate(n) { i =>
      val u = rnd.nextDouble()
      Ev(i.toLong, i.toLong, if (u < 0.5) "A" else if (u < 0.8) "B" else "C", groupName(g),
         rnd.nextDouble() * 100.0)
    })

  /** The (group, window) substreams of a (time, sid)-ordered stream, formed
    * with the program's own window assignment. Keys in (window, group) order. */
  def windows(events: Array[Ev], win: WindowSpec): Seq[((String, Long), ArraySeq[Ev])] = {
    val buf = mutable.HashMap.empty[(String, Long), mutable.ArrayBuilder[Ev]]
    events.foreach { e =>
      win.windowsOf(e.time).foreach(w => buf.getOrElseUpdate((e.group, w), Array.newBuilder[Ev]) += e)
    }
    buf.toSeq.map { case (k, b) => k -> ArraySeq.unsafeWrapArray(b.result()) }
      .sortBy { case ((g, w), _) => (w, g) }
  }
}
