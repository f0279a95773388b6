package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.{Budget, BruteForce, Engines, SparkRunner}
import repro.core.Pattern._
import repro.streams.EventGen

/** End-to-end Spark batch pipeline: sliding windows + grouping + Cogra,
  * checked against (a) the DuckDB oracle via closed-form SQL for `A+`
  * queries and (b) the declarative enumeration per substream.
  */
class CograBatchSpec extends SparkSpec {
  import spark.implicits._

  /** Single-type stream with integer values (exact double arithmetic for
    * the oracle's fixed-point comparison). */
  private lazy val aStream = {
    val ds = EventGen.stream(spark, 300, 7, Seq("A" -> 1.0), seed = 5, walkValues = false)
      .withColumn("value", floor($"value").cast("double")).as[Ev].cache()
    ds.count(); ds
  }
  private val win = WindowSpec(40, 20)
  private val series = "(SELECT wid FROM generate_series(0, 300, 20) AS t(wid)) w"

  private def renamed(ds: org.apache.spark.sql.Dataset[Ev]) =
    ds.toDF().withColumnRenamed("group", "grp") // `group` is reserved in SQL

  test("oracle: A+ under ANY — COUNT(*) = 2^n - 1 per group per window") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, Some("A"), win)
    val got = CograBatch.run(spark, aStream, q)
      .select($"group" as "grp", $"wid", $"count" as "cnt")
    Oracle.assertEquivalent(got,
      s"""SELECT e.grp AS grp, w.wid AS wid, pow(2, count(*)) - 1 AS cnt
         |FROM events e JOIN $series
         |  ON CAST(e.time AS BIGINT) >= w.wid AND CAST(e.time AS BIGINT) < w.wid + 40
         |GROUP BY e.grp, w.wid""".stripMargin,
      "events" -> renamed(aStream))
  }

  test("oracle: A+ under ANY — SUM = 2^(n-1) * Σv and COUNT(E) = n * 2^(n-1)") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, Some("A"), win)
    val got = CograBatch.run(spark, aStream, q)
      .select($"group" as "grp", $"wid", $"sum" as "sume", $"countE" as "cnte")
    Oracle.assertEquivalent(got,
      s"""SELECT e.grp AS grp, w.wid AS wid,
         |       pow(2, count(*) - 1) * sum(CAST(e.value AS DOUBLE)) AS sume,
         |       count(*) * pow(2, count(*) - 1) AS cnte
         |FROM events e JOIN $series
         |  ON CAST(e.time AS BIGINT) >= w.wid AND CAST(e.time AS BIGINT) < w.wid + 40
         |GROUP BY e.grp, w.wid""".stripMargin,
      "events" -> renamed(aStream))
  }

  test("oracle: A+ under ANY — MIN/MAX = per-(group,window) extrema") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, Some("A"), win)
    val got = CograBatch.run(spark, aStream, q)
      .select($"group" as "grp", $"wid", $"min" as "mn", $"max" as "mx")
    Oracle.assertEquivalent(got,
      s"""SELECT e.grp AS grp, w.wid AS wid,
         |       min(CAST(e.value AS DOUBLE)) AS mn, max(CAST(e.value AS DOUBLE)) AS mx
         |FROM events e JOIN $series
         |  ON CAST(e.time AS BIGINT) >= w.wid AND CAST(e.time AS BIGINT) < w.wid + 40
         |GROUP BY e.grp, w.wid""".stripMargin,
      "events" -> renamed(aStream))
  }

  test("oracle: A+ under NEXT — COUNT(*) = n(n+1)/2 per group per window") {
    val q = TrendQuery(plus(tp("A")), Semantics.NEXT, Nil, Some("A"), win)
    val got = CograBatch.run(spark, aStream, q)
      .select($"group" as "grp", $"wid", $"count" as "cnt")
    Oracle.assertEquivalent(got,
      s"""SELECT e.grp AS grp, w.wid AS wid,
         |       CAST(count(*) * (count(*) + 1) / 2 AS DOUBLE) AS cnt
         |FROM events e JOIN $series
         |  ON CAST(e.time AS BIGINT) >= w.wid AND CAST(e.time AS BIGINT) < w.wid + 40
         |GROUP BY e.grp, w.wid""".stripMargin,
      "events" -> renamed(aStream))
  }

  test("oracle: A+ under CONT equals NEXT on a pure-relevant stream") {
    val q = TrendQuery(plus(tp("A")), Semantics.CONT, Nil, Some("A"), win)
    val got = CograBatch.run(spark, aStream, q)
      .select($"group" as "grp", $"wid", $"count" as "cnt")
    Oracle.assertEquivalent(got,
      s"""SELECT e.grp AS grp, w.wid AS wid,
         |       CAST(count(*) * (count(*) + 1) / 2 AS DOUBLE) AS cnt
         |FROM events e JOIN $series
         |  ON CAST(e.time AS BIGINT) >= w.wid AND CAST(e.time AS BIGINT) < w.wid + 40
         |GROUP BY e.grp, w.wid""".stripMargin,
      "events" -> renamed(aStream))
  }

  test("batch pipeline equals per-substream declarative evaluation (SEQ(A+,B) ANY)") {
    val ds = EventGen.stock(spark, 300, 5, seed = 23).cache(); ds.count()
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"), WindowSpec(30, 15))
    val got = CograBatch.run(spark, ds, q).collect()
      .map(r => (r.group, r.wid) -> r.count).toMap
    val events = ds.collect().sortBy(e => (e.time, e.sid))
    val want = SubstreamsSpec.reference(events, q.window).map { case (k, evs) =>
      k -> BruteForce.evaluate(evs, q).count
    }
    // only substreams with at least one finished trend appear on either side
    assert(got.filter(_._2 > 0) == want.filter(_._2 > 0).toMap)
  }

  test("batch pipeline equals per-substream Cogra for NEXT with predicates") {
    val ds = EventGen.activity(spark, 300, 6, seed = 29).cache(); ds.count()
    val q = TrendQuery(plus(tp("M")), Semantics.NEXT, Seq(AdjPred.Cmp("M", "M", "<")),
      Some("M"), WindowSpec(30, 15))
    val got = CograBatch.run(spark, ds, q).collect()
      .map(r => (r.group, r.wid) -> r.count).toMap
    val events = ds.collect().sortBy(e => (e.time, e.sid))
    val want = SubstreamsSpec.reference(events, q.window).map { case (k, evs) =>
      k -> Cogra.run(evs, q).count
    }
    assert(got.filter(_._2 > 0) == want.filter(_._2 > 0).toMap)
  }

  test("CograBatch equals per-window Cogra.run on all five fields, every granularity") {
    val ds = EventGen.stock(spark, 400, 4, seed = 31).cache(); ds.count()
    val events = ds.collect()
    val win = WindowSpec(25, 10)
    val queries = Seq(
      TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"), win),
      TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<")), Some("A"), win),
      TrendQuery(plus(tp("A")), Semantics.NEXT, Seq(AdjPred.Cmp("A", "A", ">")), Some("A"), win),
      TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.CONT, Nil, None, win))
    assert(queries.map(Granularity.select).toSet.size == 3)
    for (q <- queries) {
      val got = CograBatch.run(spark, ds, q).collect()
        .map(r => (r.group, r.wid) -> (r.count, r.countE, r.sum, r.min, r.max)).toMap
      val want = SubstreamsSpec.reference(events, win).map { case (k, evs) =>
        val a = Cogra.run(evs, q)
        k -> (a.count, a.countE, a.sum, a.min, a.max)
      }
      assert(got.values.exists(_._1 > 0), s"$q")
      assert(got == want, s"$q")
    }
    ds.unpersist()
  }

  test("an event with a negative timestamp fails the batch run, not silently dropped") {
    val ds = Seq(Ev(1, 3, "A", "g", 1), Ev(2, -4, "A", "g", 2), Ev(3, 5, "B", "g", 3)).toDS()
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, None, WindowSpec(10, 5))
    val e = intercept[Exception](CograBatch.run(spark, ds, q).collect())
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains("-4")), causes)
  }

  test("a repeated (time, sid) in a group fails the batch run; in two groups it does not") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, None, WindowSpec(10, 5))
    val twin = Ev(2, 4, "A", "g", 2)
    val ok = Seq(Ev(1, 3, "A", "g", 1), twin, twin.copy(group = "h"))
    assert(CograBatch.run(spark, ok.toDS(), q).collect().length == 2)
    val e = intercept[Exception](CograBatch.run(spark, (ok :+ twin.copy(value = 5)).toDS(), q).collect())
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] &&
      c.getMessage.contains("repeated (time, sid) in group g")), causes)
  }

  test("SparkRunner: every engine supporting ANY SEQ(A+,B) returns CograBatch's results") {
    // two groups, sliding windows, and two events of a group per timestamp
    val r = new scala.util.Random(3)
    val ds = (0 until 36).map { i =>
      Ev(i.toLong, i / 4L, if (r.nextInt(3) == 0) "B" else "A", s"g${i % 2}", r.nextInt(9).toDouble)
    }.toDS()
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, None, WindowSpec(6, 3))
    val want = CograBatch.run(spark, ds, q).collect()
      .map(r => (r.group, r.wid) -> (r.count, r.countE, r.sum, r.min, r.max)).toMap
    assert(want.size > 2 && want.values.exists(_._1 > 0))
    for (engine <- Engines.all if engine.supports(q)) {
      val rows = SparkRunner.run(spark, ds, q, engine, Budget()).collect()
      assert(!rows.exists(_.dnf), engine.name)
      val got = rows.map(r => (r.group, r.wid) -> (r.count, r.countE, r.sum, r.min, r.max)).toMap
      assert(got == want, engine.name)
    }
  }

  test("grouping isolates substreams: merging two groups changes results") {
    // sanity for §7: grouping partitions the stream — type-grained counts on
    // the union differ from the per-group counts
    val evs = Seq(
      Ev(1, 1, "A", "g1", 1), Ev(2, 2, "B", "g1", 1),
      Ev(3, 3, "A", "g2", 1), Ev(4, 4, "B", "g2", 1)).toDS()
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"), WindowSpec(100, 100))
    val rows = CograBatch.run(spark, evs, q).collect()
    assert(rows.map(_.count).sum == 2.0) // one trend per group, not 3 on the union
  }
}
