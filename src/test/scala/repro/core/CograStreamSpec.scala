package repro.core

import java.nio.file.Files
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.streaming.operators.stateful.flatmapgroupswithstate.FlatMapGroupsWithStateExec
import org.apache.spark.sql.execution.streaming.runtime.{MemoryStream, StreamingQueryWrapper}
import org.apache.spark.sql.streaming.{StreamingQueryException, StreamingQueryProgress}
import repro.SparkSpec
import repro.core.Pattern._
import repro.streams.EventGen
import scala.collection.mutable
import scala.util.Random

/** Structured Streaming driver: Cogra state in flatMapGroupsWithState must
  * produce, after all micro-batches, exactly the batch-mode results. Per-key
  * updates are monotone in `count`, so the final answer per (group, window)
  * is the update with the maximal count. Each micro-batch emits one running
  * row per (group, window) that got events in it, the state holds one row
  * per group, and a late event fails its micro-batch.
  */
class CograStreamSpec extends SparkSpec {
  import CograStreamSpec.Run
  import spark.implicits._

  /** Feed `chunks` through the streaming driver, one micro-batch each. */
  private def stream(q: TrendQuery, chunks: Seq[Seq[Ev]]): Run = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Ev]
    val emitted = mutable.ArrayBuffer.empty[(Long, Seq[WinResult])]
    val sink: (Dataset[WinResult], Long) => Unit =
      (d, id) => { val rows = d.collect().toSeq; emitted.synchronized(emitted += id -> rows) }
    val dir = Files.createTempDirectory("cogra-stream-spec")
    // a query keeps the shuffle partitions (= state-store partitions) it
    // starts with; a handful suffices for these few keys
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4")
    try {
      val query = CograStream.run(spark, input.toDS(), q).writeStream.outputMode("update")
        .option("checkpointLocation", dir.toString).foreachBatch(sink).start()
      try {
        // one micro-batch per chunk: addData then drain before the next chunk
        val failure =
          try { chunks.foreach { c => input.addData(c); query.processAllAvailable() }; None }
          catch { case e: StreamingQueryException => Some(e) }
        Run(emitted.synchronized(emitted.sortBy(_._1).map(_._2).toSeq), query.lastProgress, failure,
          query.asInstanceOf[StreamingQueryWrapper].streamingQuery.lastExecution.executedPlan)
      } finally query.stop()
    } finally {
      spark.conf.set("spark.sql.shuffle.partitions", partitions)
      scala.reflect.io.Directory(dir.toFile).deleteRecursively()
    }
  }

  /** Feed `chunks` through the streaming driver, return final rows per key. */
  private def runStreaming(q: TrendQuery, chunks: Seq[Seq[Ev]]): Map[(String, Long), WinResult] = {
    val run = stream(q, chunks)
    run.failure.foreach(e => throw e)
    run.batches.flatten
      .groupBy(r => (r.group, r.wid))
      .map { case (k, rs) => k -> rs.maxBy(_.count) }
  }

  private def batchResults(q: TrendQuery, events: Seq[Ev]): Map[(String, Long), WinResult] =
    CograBatch.run(spark, events.toDS(), q).collect().map(r => (r.group, r.wid) -> r).toMap

  private def assertSame(got: Map[(String, Long), WinResult],
                         want: Map[(String, Long), WinResult]): Unit = {
    assert(got.keySet == want.keySet)
    for ((k, g) <- got) {
      val w = want(k)
      assert(g.count == w.count, s"$k count")
      assert(g.countE == w.countE, s"$k countE")
      assert(math.abs(g.sum - w.sum) < 1e-6, s"$k sum")
      assert(g.min == w.min && g.max == w.max, s"$k min/max")
    }
  }

  /** One query per granularity, CONT's pattern granularity included. */
  private def queries(win: WindowSpec): Seq[TrendQuery] = Seq(
    TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"), win),
    TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY,
      Seq(AdjPred.Cmp("A", "A", "<")), Some("B"), win),
    TrendQuery(plus(seq(plus(tp("A")), tp("B"))), Semantics.NEXT, Nil, Some("B"), win),
    TrendQuery(plus(tp("A")), Semantics.CONT, Nil, Some("A"), win))

  private val fig2 = Seq(
    Ev(1, "A", 5.0), Ev(2, "B", 1.0), Ev(3, "A", 5.0), Ev(4, "A", 5.0),
    Ev(5, "C", 0.0), Ev(6, "B", 10.0), Ev(7, "A", 5.0), Ev(8, "B", 10.0))

  test("streaming Figure 2 in three micro-batches: 43 trends under ANY") {
    val q = TrendQuery(plus(seq(plus(tp("A")), tp("B"))), Semantics.ANY, Nil, None,
      WindowSpec(100, 100))
    val got = runStreaming(q, Seq(fig2.take(3), fig2.slice(3, 6), fig2.drop(6)))
    assert(got(("g", 0L)).count == 43.0)
  }

  test("the state is keyed on the group column: no AppendColumns, grouped on `group`") {
    val run = stream(queries(WindowSpec(4, 2)).head, Seq(fig2))
    assert(run.failure.isEmpty)
    assert(run.plan.collect { case p if p.nodeName.startsWith("AppendColumns") => p }.isEmpty, run.plan)
    val grouped = run.plan.collect { case p: FlatMapGroupsWithStateExec => p.groupingAttributes.map(_.name) }
    assert(grouped == Seq(Seq("group")), run.plan)
    val shuffles = run.plan.collect { case s: ShuffleExchangeExec => s }
    assert(shuffles.size == 1, run.plan)
    // fig2's 8 events are all in group g
    val (records, mappers) = (shuffles.head.metrics("shuffleRecordsWritten").value, shuffles.head.numMappers)
    assert(records > 0 && records <= mappers * 1, s"$records records written for $mappers partitions × 1 group")
  }

  test("streaming == batch across granularities on a generated stream") {
    val events = EventGen.stock(spark, 120, 4, seed = 31).collect().toSeq.sortBy(_.sid)
    val chunks = events.grouped(40).toSeq
    for (q <- queries(WindowSpec(30, 15))) {
      assertSame(runStreaming(q, chunks), batchResults(q, events))
    }
  }

  test("streaming == batch under tumbling, uneven, gapped and unbounded windows") {
    // a gap of 100 after every 30 time units closes every open window of a
    // group, inside a micro-batch or between two
    val events = EventGen.stock(spark, 120, 4, seed = 41).collect().toSeq.sortBy(_.sid)
      .map(e => e.copy(time = e.time + 100 * (e.time / 30)))
    val chunks = events.grouped(40).toSeq
    val windows = Seq(WindowSpec(20, 20), WindowSpec(25, 10),
      WindowSpec(Long.MaxValue / 4, Long.MaxValue / 4), TrendQuery(tp("A"), Semantics.ANY).window)
    for (win <- windows; q <- queries(win)) {
      val want = batchResults(q, events)
      assert(want.values.exists(_.count > 0), s"$q")
      assertSame(runStreaming(q, chunks), want)
    }
  }

  test("streaming state survives batches: mid-window split equals unsplit") {
    val q = TrendQuery(plus(tp("M")), Semantics.NEXT, Seq(AdjPred.Cmp("M", "M", "<")),
      Some("M"), WindowSpec(60, 30))
    val events = EventGen.activity(spark, 100, 3, seed = 37).collect().toSeq.sortBy(_.sid)
    val oneBatch = runStreaming(q, Seq(events))
    val manyBatches = runStreaming(q, events.grouped(13).toSeq)
    assertSame(manyBatches, oneBatch)
  }

  test("one state row per group; each micro-batch emits exactly its windows' running aggregates") {
    val win = WindowSpec(20, 5)
    val r = new Random(5)
    val events = (0L until 160L).flatMap(t => (0 until 3).filter(_ => r.nextInt(3) > 0).map(g => (t, g)))
      .zipWithIndex.map { case ((t, g), i) =>
        Ev(i.toLong, t, if (r.nextInt(4) == 0) "B" else "A", s"g$g", r.nextInt(9).toDouble)
      }
    // a first micro-batch longer than a window, short ones that a window
    // spans, and a long last one
    val cuts = Seq(0L, 60L, 64L, 68L, 72L, 76L, 80L, 160L)
    val chunks = cuts.sliding(2).map { case Seq(a, b) => events.filter(e => e.time >= a && e.time < b) }.toSeq
    def substreams(evs: Seq[Ev]) = SubstreamsSpec.reference(evs, win)
    for (q <- queries(win)) {
      val run = stream(q, chunks)
      assert(run.failure.isEmpty, s"$q")
      assert(run.batches.size == chunks.size, s"$q")
      assert(run.last.stateOperators.head.numRowsTotal == 3, s"$q")
      for ((rows, b) <- run.batches.zipWithIndex) {
        val want = substreams(chunks.take(b + 1).flatten)
        val keys = rows.map(r => (r.group, r.wid))
        assert(keys.sorted == substreams(chunks(b)).keys.toSeq.sorted, s"$q, micro-batch $b")
        for (row <- rows) {
          val a = Cogra.run(want((row.group, row.wid)).toIndexedSeq, q)
          assert((row.count, row.countE, row.min, row.max) == ((a.count, a.countE, a.min, a.max)),
            s"$q, micro-batch $b, $row")
          assert(math.abs(row.sum - a.sum) <= 1e-9 * math.max(1.0, math.abs(a.sum)), s"$q, micro-batch $b, $row")
        }
      }
      // window 5, [5, 25), opens and closes inside the first micro-batch;
      // window 60, [60, 80), spans the five short ones
      val batchesOf = (wid: Long) => run.batches.indices.filter(b => run.batches(b).exists(_.wid == wid))
      assert(batchesOf(5L) == Seq(0), s"$q")
      assert(batchesOf(60L) == (1 to 5), s"$q")
    }
  }

  test("a repeated (time, sid) in a group fails its micro-batch and emits no row") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, None, WindowSpec(10, 10))
    val run = stream(q, Seq(
      Seq(Ev(10, 10, "A", "g", 1)),
      Seq(Ev(20, 20, "A", "g", 1), Ev(20, 20, "A", "g", 2))))
    val causes = Iterator.iterate[Throwable](run.failure.orNull)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      c.getMessage.contains("repeated (time, sid) in group g")), causes)
    assert(run.batches.map(_.map(r => (r.wid, r.count))) == Seq(Seq((10L, 1.0))))
  }

  test("a late event fails its micro-batch and emits no row; a time tie with a larger sid is in order") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, None, WindowSpec(10, 10))
    val late = Ev(99, 5, "A", "g", 1)
    val run = stream(q, Seq(
      Seq(Ev(10, 10, "A", "g", 1), Ev(30, 30, "A", "g", 1)),
      Seq(Ev(31, 30, "A", "g", 1)),
      Seq(late, Ev(100, 40, "A", "g", 1))))
    val causes = Iterator.iterate[Throwable](run.failure.orNull)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      c.getMessage.contains(late.toString) && c.getMessage.contains("(30, 31)")), causes)
    assert(run.batches.map(_.map(r => (r.wid, r.count)).sorted) ==
      Seq(Seq((10L, 1.0), (30L, 1.0)), Seq((30L, 3.0))))
  }
}

object CograStreamSpec {
  /** One streaming query's output: each micro-batch's rows in batch order,
    * its last progress report, the failure that stopped it, if any, and its
    * last micro-batch's executed plan. */
  private final case class Run(batches: Seq[Seq[WinResult]], last: StreamingQueryProgress,
                               failure: Option[StreamingQueryException], plan: SparkPlan)
}
