package repro.core

import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import repro.SparkSpec
import repro.baselines.{Budget, Greta, SparkRunner}
import repro.core.Pattern._
import scala.collection.mutable
import scala.util.Random

/** Differential test of the batch substreams: `Substreams.map` must yield
  * exactly the driver-side reference, each event exploded into
  * `windowsOf(time)` and each (group, window) stably sorted by (time, sid):
  * the same key set, and the same event sequence per key, however the
  * input is partitioned into blocks. */
class SubstreamsSpec extends SparkSpec with AdaptiveSparkPlanHelper {
  import spark.implicits._

  import SubstreamsSpec.reference

  private type Subs = Map[(String, Long), Seq[Ev]]

  /** The substreams of `evs`, read in shuffled order from `parts` partitions. */
  private def substreams(evs: Seq[Ev], win: WindowSpec, seed: Int, parts: Int): Subs = {
    val ds = spark.sparkContext.parallelize(new Random(seed).shuffle(evs), parts).toDS()
    val rows = Substreams.map(ds, win)((g, w, s) => (g, w, s: Seq[Ev])).collect()
    assert(rows.forall(_._3.nonEmpty), "an empty substream was emitted")
    assert(rows.map(r => (r._1, r._2)).distinct.length == rows.length, "a substream was emitted twice")
    rows.map(r => (r._1, r._2) -> r._3).toMap
  }

  private def check(evs: Seq[Ev], win: WindowSpec, seed: Int = 1, parts: Int = 3): Subs = {
    val got = substreams(evs, win, seed, parts)
    assert(got == reference(evs, win), s"window $win, $parts partitions")
    got
  }

  /** `n` events over `groups` groups: each group's times advance by 0 (a
    * tie), 1, 2, or a gap longer than `gapOver`; sids are a random
    * permutation, so they order ties differently from arrival. */
  private def stream(r: Random, n: Int, groups: Int, gapOver: Long): Seq[Ev] = {
    val clock = Array.fill(groups)(r.nextInt(4).toLong)
    val sids = r.shuffle((0 until n).toVector)
    (0 until n).map { i =>
      val g = r.nextInt(groups)
      clock(g) += (r.nextInt(8) match {
        case 0 | 1 | 2 => 0L
        case 3 | 4 => 1L
        case 5 | 6 => 2L
        case _ => gapOver + 1 + r.nextInt(5)
      })
      Ev(sids(i).toLong, clock(g), if (r.nextBoolean()) "A" else "B", s"g$g", r.nextInt(9).toDouble)
    }
  }

  /** Inputs at the ends of the id range: streams whose last time is
    * `Long.MaxValue` under small windows, and the unbounded window
    * `WindowSpec(Long.MaxValue, Long.MaxValue)` over ordinary times and
    * over times that reach its second window, `Long.MaxValue`. */
  private def extremes(r: Random, groups: Int): Seq[(Seq[Ev], WindowSpec)] = {
    def late(evs: Seq[Ev]): Seq[Ev] = {
      val d = Long.MaxValue - evs.map(_.time).max
      evs.map(e => e.copy(time = e.time + d))
    }
    val unbounded = WindowSpec(Long.MaxValue, Long.MaxValue)
    Seq(WindowSpec(7, 3), WindowSpec(5, 5), WindowSpec(10, 4)).map(w => late(stream(r, 60, groups, w.size)) -> w) ++
      Seq(stream(r, 60, groups, 7) -> unbounded, late(stream(r, 60, groups, 7)) -> unbounded)
  }

  test("random streams, groups and windows: the reference substreams") {
    // at one shuffle partition every group shares one task; at 3 and 8 input
    // partitions a group's events are split over blocks, out of (time, sid)
    // order
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    try {
      for (shuffle <- Seq(partitions, "1"); parts <- Seq(1, 3, 8)) {
        spark.conf.set("spark.sql.shuffle.partitions", shuffle)
        val r = new Random(17)
        for (trial <- 0 until 24) {
          val size = 1 + r.nextInt(12)
          val slide = if (trial % 3 == 0) size else 1 + r.nextInt(size)
          val win = WindowSpec(size, slide)
          check(stream(r, r.nextInt(80), 1 + r.nextInt(4), size), win, trial, parts)
        }
        for (((evs, win), trial) <- extremes(new Random(19), 3).zipWithIndex) check(evs, win, trial, parts)
      }
    } finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
  }

  test("both batch drivers shuffle one block per (input partition, group), hash-partitioned on the group alone") {
    val evs = stream(new Random(6), 200, 3, 7)
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"), WindowSpec(7, 3))
    def input = spark.sparkContext.parallelize(evs, 3).toDS()
    for (ds <- Seq(CograBatch.run(spark, input, q), SparkRunner.run(spark, input, q, Greta, Budget()))) {
      ds.collect()
      val shuffles = collect(ds.queryExecution.executedPlan) { case s: ShuffleExchangeExec => s }
      assert(shuffles.size == 1, ds.queryExecution.executedPlan)
      val shuffle = shuffles.head
      shuffle.outputPartitioning match {
        case h: HashPartitioning => assert(h.expressions.map(_.asInstanceOf[Attribute].name) == Seq("group"))
        case p => fail(s"not hash-partitioned: $p")
      }
      val records = shuffle.metrics("shuffleRecordsWritten").value
      assert(shuffle.numMappers == 3)
      assert(records > 0 && records <= 3 * 3, s"$records records written for 3 partitions × 3 groups")
    }
  }

  test("cut: one range of a group's sorted events per window that holds an event, oldest first") {
    val r = new Random(23)
    val random = (0 until 200).map { trial =>
      val size = 1 + r.nextInt(12)
      val slide = if (trial % 3 == 0) size else 1 + r.nextInt(size)
      stream(r, r.nextInt(80), 1, size) -> WindowSpec(size, slide)
    }
    for ((input, win) <- random ++ extremes(r, 1)) {
      val evs = input.sortBy(e => (e.time, e.sid)).toArray
      val ranges = mutable.ArrayBuffer.empty[(Long, Int, Int)]
      Substreams.cut(evs, win)((wid, from, until) => ranges += ((wid, from, until)))
      val wids = ranges.map(_._1)
      assert(wids.zip(wids.drop(1)).forall { case (a, b) => a < b }, s"window $win: ids not increasing")
      assert(ranges.forall { case (_, from, until) => from < until }, s"window $win: an empty range")
      val got = ranges.map { case (wid, from, until) => ("g0", wid) -> evs.slice(from, until).toSeq }.toMap
      assert(got == reference(evs, win), s"window $win")
    }
  }

  test("Block.of then Block.merge: each group's events in (time, sid) order, type names kept") {
    val r = new Random(8)
    // C is no pattern type but breaks CONT contiguity, so it must keep its name
    val evs = stream(r, 300, 4, 5).map(e => if (r.nextInt(5) == 0) e.copy(etype = "C") else e)
    val blocks = r.shuffle(evs).grouped(37).flatMap(chunk => Block.of(chunk.iterator)).toSeq
    assert(blocks.groupBy(_.group).values.exists(_.map(_.types.toSeq).distinct.size > 1),
      "no group's blocks saw its types in different orders")
    for ((g, bs) <- blocks.groupBy(_.group)) {
      assert(bs.forall(b => b.types.distinct.length == b.types.length))
      val merged = Block.merge(g, r.shuffle(bs).iterator).toSeq
      assert(merged == evs.filter(_.group == g).sortBy(e => (e.time, e.sid)), g)
      assert(merged.exists(_.etype == "C"), g)
    }
    assert(Block.merge("g", Iterator.empty).isEmpty)
  }

  test("Block.merge rejects a repeated (time, sid) in a group; equal times with distinct sids merge in sid order") {
    val first = Block.of(Iterator(Ev(4, 7, "A", "g", 1), Ev(2, 7, "B", "g", 2))).toSeq
    val second = Block.of(Iterator(Ev(3, 7, "A", "g", 3))).toSeq
    assert(Block.merge("g", (first ++ second).iterator).map(_.sid).toSeq == Seq(2L, 3L, 4L))
    val twin = Ev(4, 7, "B", "g", 5)
    val e = intercept[IllegalArgumentException](Block.merge("g", (first ++ Block.of(Iterator(twin))).iterator))
    // the sort is stable, so the later of the two equal events is named
    assert(e.getMessage.endsWith(s"repeated (time, sid) in group g: $twin"), e.getMessage)
  }

  test("several groups, each cut into its own windows") {
    val evs = for (g <- 0 until 5; t <- 0L until 20L) yield Ev(g * 100L + t, t, "A", s"g$g", t.toDouble)
    val got = check(evs, WindowSpec(6, 3))
    assert(got.keySet.map(_._1) == (0 until 5).map(g => s"g$g").toSet)
    assert(got(("g3", 3L)).map(_.time) == (3L until 9L))
  }

  test("time ties are broken by sid, not by arrival") {
    val evs = Seq(Ev(9, 4, "A", "g", 1), Ev(2, 4, "B", "g", 2), Ev(5, 4, "A", "g", 3), Ev(1, 7, "B", "g", 4))
    for (seed <- 0 until 4) {
      val got = check(evs, WindowSpec(10, 5), seed)
      assert(got(("g", 0L)).map(_.sid) == Seq(2L, 5L, 9L, 1L))
    }
  }

  test("tumbling windows: each event in exactly one substream") {
    val evs = stream(new Random(3), 200, 3, 7)
    val got = check(evs, WindowSpec(7, 7))
    assert(got.values.map(_.size).sum == evs.size)
  }

  test("a size that is not a multiple of the slide") {
    check(stream(new Random(4), 200, 3, 7), WindowSpec(7, 3))
    check(stream(new Random(5), 200, 2, 10), WindowSpec(10, 4))
  }

  test("gaps longer than a window open no empty window") {
    val evs = Seq(0L, 1L, 30L, 31L, 100L, 250L).map(t => Ev(t, t, "A", "g", 1))
    val got = check(evs, WindowSpec(10, 5))
    assert(got.keySet.map(_._2) == Set(0L, 25L, 30L, 95L, 100L, 245L, 250L))
  }

  test("an empty stream has no substreams") {
    assert(check(Nil, WindowSpec(10, 5)).isEmpty)
  }
}

object SubstreamsSpec {
  /** The substreams of `evs` by their definition: each event exploded into
    * `windowsOf(time)`, and each (group, window) stably sorted by
    * (time, sid). */
  def reference(evs: collection.Seq[Ev], win: WindowSpec): Map[(String, Long), IndexedSeq[Ev]] =
    evs.toVector.flatMap(e => win.windowsOf(e.time).map(w => (e.group, w) -> e))
      .groupBy(_._1).map { case (k, kv) => k -> kv.map(_._2).sortBy(e => (e.time, e.sid)) }
}
