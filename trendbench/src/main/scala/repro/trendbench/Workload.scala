package repro.trendbench

import java.nio.file.Path
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.baselines.{Budget, Greta}
import repro.core.{Agg, Cogra, Ev, TrendQuery, WindowSpec}
import scala.collection.immutable.ArraySeq

/** What one run of one workload works with. */
final case class Ctx(seed: Long, seconds: Double, trace: Boolean, work: Path,
                     tally: Tally, tracer: Tracer, metrics: Metrics) {
  private val started = System.nanoTime()

  /** Progress on standard error, with the time since the run started. */
  def log(msg: String): Unit =
    Console.err.println(f"trendbench [${(System.nanoTime() - started) / 1e9}%6.1f s] $msg")

  /** Median of `reps` timed set-ups, reported as `setup_s`; returns the last.
    * Each starts from a collected heap, so that whether a collection falls
    * inside it does not depend on what ran before. */
  def setup[T](reps: Int)(body: => T)(release: T => Unit): T = {
    var last: Option[T] = None
    val (secs, cpuSecs) = (0 until reps).map { _ =>
      last.foreach(release)
      last = None
      System.gc()
      val (t0, c0) = (System.nanoTime(), Machine.threadCpuNs())
      last = Some(body)
      ((System.nanoTime() - t0) / 1e9, Machine.cpuNsSince(c0) / 1e9)
    }.unzip
    log(s"set-up, wall/CPU: ${secs.zip(cpuSecs).map { case (w, c) => f"$w%.3f/$c%.3f" }.mkString(" ")} s")
    if (!trace) metrics.lower("setup_s", Stats.median(secs), "s")
    last.get
  }

  /** Throughput traced and untraced, each in the workload's own timing:
    * CPU time for `agg_hot`, the wall clock (as its spans) for the Spark
    * workloads. */
  def reportTraceOverhead(tracedEventsPerS: Double, untracedEventsPerS: Double): Unit = {
    metrics.higher("trace.events_per_s", tracedEventsPerS, "1/s")
    metrics.higher("trace.untraced_events_per_s", untracedEventsPerS, "1/s")
    metrics.lower("trace.overhead_pct", (untracedEventsPerS / tracedEventsPerS - 1) * 100, "%")
  }
}

/** The multiplexed stock-like stream shared by the Spark workloads: 19
  * groups, sliding windows of 4 slides holding about 1k events per
  * (group, window), so every event is copied into 4 windows. */
object SlidingStream {
  val groups = 19
  val window: WindowSpec = WindowSpec(groups * 1000L, groups * 1000L / 4)
  /** Events in the stream. */
  val size = 200000
  /** Windows the mixed-grained query runs on for `mixed_peak_units`. */
  val mixedSample = 40

  /** The whole stream, generated outside Spark. */
  def events(seed: Long): Array[Ev] = Gen.stockSlice(seed, groups, 0, size, Gen.walkStart(groups))

  /** Generate and cache the stream; set-up is timed around this. Every
    * event is generated here (for the references), and the Spark tasks
    * generate their partitions' slices again, so that tasks do not carry
    * the data. */
  def cached(spark: SparkSession, seed: Long): (Array[Ev], Dataset[Ev]) = {
    import spark.implicits._
    val parts = Main.shufflePartitions
    val bounds = (0 to parts).map(p => p.toLong * size / parts)
    val walk = Gen.walkStart(groups)
    val starts = new Array[Array[Double]](parts)
    val evs = (0 until parts).flatMap { p =>
      starts(p) = walk.clone()
      Gen.stockSlice(seed, groups, bounds(p), bounds(p + 1), walk)
    }.toArray
    val ds = spark.sparkContext.parallelize(0 until parts, parts).toDS()
      .flatMap(p => Gen.stockSlice(seed, groups, bounds(p), bounds(p + 1), starts(p).clone()))
      .persist(StorageLevel.MEMORY_ONLY)
    ds.count()
    (evs, ds)
  }

  /** The references come from `Cogra.run`, the aggregators under test;
    * check them against GRETA, an independent engine, on evenly spaced
    * windows, one operation per window. */
  def gretaCheck(ctx: Ctx, subs: Seq[((String, Long), ArraySeq[Ev])], refs: Map[(String, Long), Agg],
                 q: TrendQuery): Unit = {
    val budget = Budget()
    for (i <- 0 until Hot.anySample) {
      val (k, s) = subs(i * subs.size / Hot.anySample)
      ctx.tally.op(s"GRETA window check $k") {
        val r = Greta.run(s, q, budget)
        Seq(if (r.dnf) Verdict.Mismatch else Check.verdict(refs(k), r.agg))
      }
    }
  }

  /** `mixed_peak_units` of this stream: the sum of `MixedGrained.peakUnits`
    * of the mixed-grained hot query over evenly spaced windows. */
  def mixedPeakUnits(subs: Seq[((String, Long), ArraySeq[Ev])]): Double =
    (0 until mixedSample).map { i =>
      val a = Cogra.aggregator(Queries.q3Mixed(window))
      subs(i * subs.size / mixedSample)._2.foreach(a.onEvent)
      a.peakUnits.toDouble
    }.sum
}
