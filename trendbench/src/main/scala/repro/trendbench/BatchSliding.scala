package repro.trendbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import scala.collection.mutable

/** Workload `batch_sliding`: `CograBatch.run(...).collect()` on the cached
  * sliding-window stream, query q3, in a closed loop of passes. Each pass is
  * timed on the wall clock and in the CPU time of the Java threads
  * ([[Machine.cpuNsSince]]); `cpu_ns_per_event` is the median pass's CPU
  * time per input event. Each pass is checked window by window against
  * `Cogra.run` on substreams formed outside Spark. */
object BatchSliding {
  /** Untimed passes before the timed ones; the first is the cold pass. */
  val warmups = 3
  val minPasses = 5
  /** Layer self times are differences of prefix-job medians, so traced runs
    * take at least this many sets of prefix jobs. */
  val minPrefixSets = 4
  /** Untimed sets of prefix jobs first: their code is not the program's, so
    * it has not been compiled by the warm-up passes. Cold, they ran longer
    * than the full pass. */
  val prefixWarmups = 1

  def run(ctx: Ctx, startSpark: () => SparkSession): Unit = {
    val m = ctx.metrics
    val win = SlidingStream.window
    val q = Queries.q3(win)
    val spark = startSpark()
    val (evs, ds) = ctx.setup(reps = 7)(SlidingStream.cached(spark, ctx.seed))(_._2.unpersist(true))
    ctx.log("references")
    val subs = Gen.windows(evs, win)
    val refs: Map[(String, Long), Agg] = subs.map { case (k, s) => k -> Cogra.run(s, q) }.toMap
    def check(what: String, rows: Array[WinResult]): Unit = ctx.tally.op(what) {
      Check.keyed(rows.toSeq.map(r => (r.group, r.wid) -> Check.agg(r)), refs)
    }
    SlidingStream.gretaCheck(ctx, subs, refs, q)

    ctx.log("warm-up passes")
    /** One checked pass: its wall and CPU seconds and the number of rows it
      * returned. */
    def pass(what: String): Option[Pass] = try {
      val (t0, c0) = (System.nanoTime(), Machine.threadCpuNs())
      val rows = CograBatch.run(spark, ds, q).collect()
      val p = Pass((System.nanoTime() - t0) / 1e9, Machine.cpuNsSince(c0) / 1e9, rows.length)
      check(what, rows)
      Some(p)
    } catch { case scala.util.control.NonFatal(e) => ctx.tally.crashed(what, e); None }

    val cold = (0 until warmups).map(i => pass(s"warm-up pass $i")).head
    ctx.log("timed passes")
    def passes(seconds: Double): Seq[Pass] = {
      val out = mutable.ArrayBuffer.empty[Pass]
      val deadline = System.nanoTime() + (seconds * 1e9).toLong
      var i = 0
      while (System.nanoTime() < deadline || i < minPasses) {
        pass(s"timed pass $i").foreach(out += _)
        i += 1
      }
      out.toSeq
    }
    if (!ctx.trace) {
      val ps = passes(ctx.seconds)
      ctx.log(s"timed passes, wall/CPU: ${ps.map(p => f"${p.wallS}%.2f/${p.cpuS}%.2f").mkString(" ")} s")
      m.lower("cpu_ns_per_event", Stats.median(ps.map(_.cpuS)) * 1e9 / SlidingStream.size, "ns")
      m.lower("state_rows", ps.last.rows.toDouble, "rows")
      m.lower("mixed_peak_units", SlidingStream.mixedPeakUnits(subs), "units")
    } else {
      val plain = passes(ctx.seconds / 2).map(_.wallS)
      val totals = tracedPrefixes(ctx, spark, ds, q, ctx.seconds / 2, check)
      // median duration of each prefix job, from its spans
      val upTo = Layers.map(l => Stats.median(ctx.tracer.named(s"batch.prefix.$l").map(_.durNs / 1e9)))
      for (i <- Layers.indices)
        m.lower(s"batch.${Layers(i)}_s", upTo(i) - (if (i == 0) 0.0 else upTo(i - 1)), "s")
      m.lower("batch.pass_s", upTo.last, "s")
      m.lower("batch.replication", subs.iterator.map(_._2.size.toLong).sum.toDouble / SlidingStream.size, "ratio")
      m.higher("batch.windows", refs.size.toDouble, "count")
      m.lower("batch.cold_pass_s", cold.map(_.wallS).getOrElse(Double.NaN), "s")
      SparkProbe.report(m, totals)
      ctx.reportTraceOverhead(SlidingStream.size / upTo.last, SlidingStream.size / Stats.median(plain))
    }
    ds.unpersist(true)
  }

  final case class Pass(wallS: Double, cpuS: Double, rows: Int)

  /** The pipeline's layers, in the order `CograBatch.run` applies them. */
  val Layers: Seq[String] = Seq("scan", "explode", "shuffle", "sort", "aggregate", "collect")

  /** Sets of prefix jobs, each job in a span `batch.prefix.<layer>`: job k
    * runs the pipeline up to and including layer k and drains the output,
    * so layer k's self time is the duration of prefix k minus that of
    * prefix k - 1. The last prefix is the full `CograBatch.run(...).collect()`;
    * its task totals are returned.
    *
    * The first five prefixes restate the steps of `CograBatch.run` as it
    * stands at this commit. So that a copy that no longer matches it fails
    * instead of misplacing time, every set checks the aggregate prefix's
    * count per (group, window) against the rows `CograBatch.run` returns. */
  private def tracedPrefixes(ctx: Ctx, spark: SparkSession, ds: Dataset[Ev], q: TrendQuery,
                             seconds: Double, check: (String, Array[WinResult]) => Unit): Seq[TaskTotals] = {
    import spark.implicits._
    val win = q.window
    def drain[T](d: Dataset[T]): Unit = d.foreachPartition((it: Iterator[T]) => it.foreach(_ => ()))
    def exploded = ds.flatMap(e => win.windowsOf(e.time).map(wid => (wid, e)))
    def grouped = exploded.groupByKey { case (wid, e) => (e.group, wid) }
    def sorted(it: Iterator[(Long, Ev)]): Array[Ev] = {
      val evs = it.map(_._2).toArray
      scala.util.Sorting.stableSort(evs, (a: Ev, b: Ev) => Ev.ordering.lt(a, b))
      evs
    }
    var counts: Array[((String, Long), Double)] = Array.empty
    val prefixJobs: Seq[() => Unit] = Seq(
      () => drain(ds),
      () => drain(exploded),
      () => drain(grouped.mapGroups((_, it) => it.size)),
      () => drain(grouped.mapGroups((_, it) => sorted(it).length)),
      () => counts = grouped.mapGroups((k, it) => (k, Cogra.run(sorted(it), q).count)).collect())
    for (_ <- 0 until prefixWarmups; job <- prefixJobs) job()
    val probe = new SparkProbe(spark)
    val out = mutable.ArrayBuffer.empty[TaskTotals]
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline || out.size < minPrefixSets) {
      out += ctx.tracer.span("batch.prefix_set") { parent =>
        for (i <- Layers.init.indices) ctx.tracer.span(s"batch.prefix.${Layers(i)}", parent)(_ => prefixJobs(i)())
        val (rows, totals) = probe.measure {
          ctx.tracer.span("batch.prefix.collect", parent)(_ => CograBatch.run(spark, ds, q).collect())
        }
        check(s"traced pass ${out.size}", rows)
        ctx.tally.op(s"prefix jobs mirror CograBatch.run, set ${out.size}") {
          val want = rows.map(r => (r.group, r.wid) -> r.count).toMap
          Seq(if (counts.length == want.size && counts.forall { case (k, c) => want.get(k).contains(c) })
                Verdict.Pass
              else Verdict.Mismatch)
        }
        totals
      }
    }
    probe.detach()
    out.toSeq
  }
}
