package repro.core

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core.Pattern._
import repro.streams.EventGen

/** Structured Streaming driver: Cogra state in flatMapGroupsWithState must
  * produce, after all micro-batches, exactly the batch-mode results. Per-key
  * updates are monotone in `count`, so the final answer per (group, window)
  * is the update with the maximal count.
  */
class CograStreamSpec extends SparkSpec {
  import spark.implicits._
  import org.apache.spark.sql.streaming.Trigger

  private var nameSeq = 0

  /** Feed `chunks` through the streaming driver, return final rows per key. */
  private def runStreaming(q: TrendQuery, chunks: Seq[Seq[Ev]]): Map[(String, Long), WinResult] = {
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Ev]
    val out = CograStream.run(spark, input.toDS(), q)
    nameSeq += 1
    val sink = s"cogra_stream_sink_$nameSeq"
    // a query keeps the shuffle partitions (= state-store partitions) it
    // starts with; a handful suffices for these few keys
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4")
    try {
      val query = out.writeStream.outputMode("update").format("memory")
        .queryName(sink).start()
      try {
        // one micro-batch per chunk: addData then drain before the next chunk
        chunks.foreach { c => input.addData(c); query.processAllAvailable() }
      } finally query.stop()
    } finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
    spark.table(sink).as[WinResult].collect()
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

  private val fig2 = Seq(
    Ev(1, "A", 5.0), Ev(2, "B", 1.0), Ev(3, "A", 5.0), Ev(4, "A", 5.0),
    Ev(5, "C", 0.0), Ev(6, "B", 10.0), Ev(7, "A", 5.0), Ev(8, "B", 10.0))

  test("streaming Figure 2 in three micro-batches: 43 trends under ANY") {
    val q = TrendQuery(plus(seq(plus(tp("A")), tp("B"))), Semantics.ANY, Nil, None,
      WindowSpec(100, 100))
    val got = runStreaming(q, Seq(fig2.take(3), fig2.slice(3, 6), fig2.drop(6)))
    assert(got(("g", 0L)).count == 43.0)
  }

  test("streaming == batch across granularities on a generated stream") {
    val events = EventGen.stock(spark, 120, 4, seed = 31).collect().toSeq.sortBy(_.sid)
    val chunks = events.grouped(40).toSeq
    val win = WindowSpec(30, 15)
    val queries = Seq(
      TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"), win),
      TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY,
        Seq(AdjPred.Cmp("A", "A", "<")), Some("B"), win),
      TrendQuery(plus(seq(plus(tp("A")), tp("B"))), Semantics.NEXT, Nil, Some("B"), win),
      TrendQuery(plus(tp("A")), Semantics.CONT, Nil, Some("A"), win))
    for (q <- queries) {
      assertSame(runStreaming(q, chunks), batchResults(q, events))
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
}
