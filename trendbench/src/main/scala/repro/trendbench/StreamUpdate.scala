package repro.trendbench

import java.nio.file.Path
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.core._
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Workload `stream_update`: one `CograStream.run` query
  * over a `MemoryStream` fed the whole sliding-window stream of
  * `batch_sliding` in fixed micro-batches, `processAllAvailable` between
  * them, query q3. The query's first micro-batches are its warm-up; it goes
  * on across the whole timed region, so its state grows batch by batch as in
  * service (it is never evicted). `cpu_ns_per_event` is the median timed
  * micro-batch's CPU time of the Java threads ([[Machine.cpuNsSince]]) per
  * input event. Every micro-batch's emitted rows are
  * checked against `Cogra.run` on each key's events up to that batch, and
  * the final row per key against `CograBatch`. */
object StreamUpdate {
  val batchEvents = 10000
  /** Untimed first micro-batches of each query; the very first is the cold
    * pass. */
  val warmupBatches = 3

  /** @param batchMs wall milliseconds of each micro-batch
    * @param batchCpuMs CPU milliseconds of each micro-batch, all threads
    * @param progress the query's progress reports of batches that ran */
  final case class QueryRun(batchMs: Seq[Double], batchCpuMs: Seq[Double], progress: Seq[StreamingQueryProgress],
                            totals: Seq[TaskTotals]) {
    /** The same, without the warm-up micro-batches. */
    def timed: QueryRun = QueryRun(batchMs.drop(warmupBatches), batchCpuMs.drop(warmupBatches),
                                   progress.drop(warmupBatches), totals.drop(warmupBatches))
  }

  def run(ctx: Ctx, startSpark: () => SparkSession): Unit = {
    val m = ctx.metrics
    val q = Queries.q3(SlidingStream.window)
    val spark = startSpark()
    val (evs, ds) = ctx.setup(reps = 7)(SlidingStream.cached(spark, ctx.seed))(_._2.unpersist(true))
    ctx.log("references")
    val subs = Gen.windows(evs, SlidingStream.window)
    val chunks = evs.grouped(batchEvents).map(c => ArraySeq.unsafeWrapArray(c)).toIndexedSeq
    val refs = referenceByBatch(subs, q)
    val finalRefs: Map[(String, Long), Agg] = subs.map { case (k, s) => k -> Cogra.run(s, q) }.toMap
    SlidingStream.gretaCheck(ctx, subs, finalRefs, q)
    // CograBatch on the same input is the reference for CograStream
    val batchRows = CograBatch.run(spark, ds, q).collect()
    ctx.tally.op("batch reference") {
      Check.keyed(batchRows.toSeq.map(r => (r.group, r.wid) -> Check.agg(r)), finalRefs)
    }
    val batchAggs = batchRows.map(r => (r.group, r.wid) -> Check.agg(r)).toMap
    ds.unpersist(true)

    var queries = 0
    def query(input: IndexedSeq[ArraySeq[Ev]], traced: Boolean): Option[QueryRun] = {
      queries += 1
      val what = s"query $queries"
      val dir = ctx.work.resolve(s"checkpoint-$queries")
      try Some(runQuery(ctx, spark, q, input, dir, traced, refs, batchAggs, what))
      catch { case scala.util.control.NonFatal(e) => ctx.tally.crashed(what, e); None }
      finally Main.deleteTree(dir)
    }

    ctx.log(s"query: ${chunks.size} micro-batches, the first $warmupBatches untimed")
    def eventsPerS(r: QueryRun): Double = batchEvents / (Stats.median(r.batchMs) / 1e3)
    if (!ctx.trace) {
      query(chunks, traced = false).foreach { all =>
        ctx.log(s"micro-batches, wall/CPU: ${all.batchMs.zip(all.batchCpuMs).map { case (w, c) => f"$w%.0f/$c%.0f" }
          .mkString(" ")} ms")
        val r = all.timed
        m.lower("cpu_ns_per_event", Stats.median(r.batchCpuMs) * 1e6 / batchEvents, "ns")
        m.lower("state_rows", r.progress.last.stateOperators.head.numRowsTotal.toDouble, "rows")
        m.lower("mixed_peak_units", SlidingStream.mixedPeakUnits(subs), "units")
      }
    } else for (warm <- query(chunks, traced = false); plainAll <- query(chunks, traced = false);
                tracedAll <- query(chunks, traced = true)) {
      // a whole untimed query first, so that the plain side of the overhead
      // comparison does not run on the coldest JIT
      val (plain, traced) = (plainAll.timed, tracedAll.timed)
      val ms = traced.batchMs
      val ps = traced.progress
      def dur(key: String): Double = Stats.median(ps.map(p => p.durationMs.getOrDefault(key, 0L).toDouble))
      m.lower("stream.trigger_ms_p50", dur("triggerExecution"), "ms")
      m.lower("stream.add_batch_ms_p50", dur("addBatch"), "ms")
      m.lower("stream.wal_commit_ms_p50", dur("walCommit"), "ms")
      m.lower("stream.query_planning_ms_p50", dur("queryPlanning"), "ms")
      m.lower("stream.batch_ms_p50", Stats.median(ms), "ms")
      m.lower("stream.batch_ms_p90", Stats.quantile(ms, 0.9), "ms")
      m.higher("stream.batch_samples", ms.size.toDouble, "count")
      m.lower("stream.cold_pass_s", warm.batchMs.head / 1e3, "s")
      val ops = ps.map(_.stateOperators.head)
      m.lower("state.rows_updated", Stats.median(ops.map(_.numRowsUpdated.toDouble)), "rows")
      m.lower("state.memory_bytes", ops.last.memoryUsedBytes.toDouble, "B")
      m.lower("state.commit_ms_p50", Stats.median(ops.map(_.commitTimeMs.toDouble)), "ms")
      SparkProbe.report(m, traced.totals)
      ctx.reportTraceOverhead(eventsPerS(traced), eventsPerS(plain))
    }
  }

  /** For micro-batch b, the aggregate of every key that gets events in b,
    * over that key's events up to the end of b. */
  private def referenceByBatch(subs: Seq[((String, Long), ArraySeq[Ev])],
                               q: TrendQuery): Map[Int, Map[(String, Long), Agg]] = {
    val out = mutable.HashMap.empty[Int, mutable.HashMap[(String, Long), Agg]]
    for ((k, s) <- subs) {
      val a = Cogra.aggregator(q)
      s.indices.foreach { i =>
        a.onEvent(s(i))
        val b = (s(i).sid / batchEvents).toInt
        if (i == s.size - 1 || (s(i + 1).sid / batchEvents).toInt != b)
          out.getOrElseUpdate(b, mutable.HashMap.empty)(k) = a.result
      }
    }
    out.map { case (b, m) => b -> m.toMap }.toMap
  }

  private def runQuery(ctx: Ctx, spark: SparkSession, q: TrendQuery, chunks: IndexedSeq[ArraySeq[Ev]],
                       dir: Path, traced: Boolean, refs: Map[Int, Map[(String, Long), Agg]],
                       finalRefs: Map[(String, Long), Agg], what: String): QueryRun = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Ev]
    val emitted = mutable.ArrayBuffer.empty[(Long, Array[WinResult])]
    val sink: (Dataset[WinResult], Long) => Unit =
      (d, id) => emitted.synchronized { emitted += id -> d.collect() }
    val probe = if (traced) Some(new SparkProbe(spark)) else None
    val query = CograStream.run(spark, input.toDS(), q).writeStream.outputMode("update")
      .option("checkpointLocation", dir.toString).foreachBatch(sink).start()
    val batchMs = mutable.ArrayBuffer.empty[Double]
    val batchCpuMs = mutable.ArrayBuffer.empty[Double]
    val totals = mutable.ArrayBuffer.empty[TaskTotals]
    try {
      val root = ctx.tracer.begin("stream.query")
      for (c <- chunks) {
        ctx.tracer.span("stream.batch", root) { _ =>
          def step(): Unit = {
            val (t0, c0) = (System.nanoTime(), Machine.threadCpuNs())
            input.addData(c)
            query.processAllAvailable()
            batchMs += (System.nanoTime() - t0) / 1e6
            batchCpuMs += Machine.cpuNsSince(c0) / 1e6
          }
          probe match {
            case Some(p) => totals += p.measure(step())._2
            case None => step()
          }
        }
      }
      ctx.tracer.end(root)
    } finally {
      query.stop()
      probe.foreach(_.detach())
    }
    val byBatch = emitted.synchronized(emitted.sortBy(_._1).toSeq)
    ctx.tally.op(s"$what: one micro-batch per chunk") {
      Seq(if (byBatch.map(_._1) == chunks.indices.map(_.toLong)) Verdict.Pass else Verdict.Mismatch)
    }
    for ((id, rows) <- byBatch)
      ctx.tally.op(s"$what, micro-batch $id") {
        Check.keyed(rows.toSeq.map(r => (r.group, r.wid) -> Check.agg(r)), refs.getOrElse(id.toInt, Map.empty))
      }
    if (chunks.size == refs.size) {
      val last = byBatch.flatMap(_._2).map(r => (r.group, r.wid) -> Check.agg(r)).toMap
      ctx.tally.op(s"$what: final row per key equals batch")(Check.keyed(last.toSeq, finalRefs))
    }
    QueryRun(batchMs.toSeq, batchCpuMs.toSeq, query.recentProgress.toSeq.filter(_.stateOperators.nonEmpty), totals.toSeq)
  }
}
