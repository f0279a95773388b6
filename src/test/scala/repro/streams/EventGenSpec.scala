package repro.streams

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** The synthetic dataset substitutes (DESIGN.md §2): determinism, schema,
  * mix, and an Oracle cross-check of the generation pipeline. */
class EventGenSpec extends SparkSpec {
  import spark.implicits._

  test("generators are deterministic in (n, seed)") {
    val a = EventGen.stock(spark, 500, 19, seed = 13).collect().toSeq
    val b = EventGen.stock(spark, 500, 19, seed = 13).collect().toSeq
    assert(a == b)
    val c = EventGen.stock(spark, 500, 19, seed = 14).collect().toSeq
    assert(a != c)
  }

  test("rows are a function of (n, seed) alone: any slicing or parallelism equals one sequential pass") {
    val n = 5000L
    val specs = Seq(
      (EventGen.stock(spark, n, 19, seed = 13), EventGen.Spec(19, Seq("A" -> 0.75, "B" -> 0.25), 13, walkValues = true)),
      (EventGen.transport(spark, n, 30, seed = 17),
       EventGen.Spec(30, Seq("A" -> 0.5, "B" -> 0.3, "C" -> 0.2), 17, walkValues = false)),
      (EventGen.stream(spark, n, 7, Seq("M" -> 0.6, "X" -> 0.4), seed = 3, walkValues = true),
       EventGen.Spec(7, Seq("M" -> 0.6, "X" -> 0.4), 3, walkValues = true)))
    for ((ds, spec) <- specs) {
      val sequential = spec.slice(0, n, Array.fill(spec.nGroups)(100.0)).toSeq
      assert(sequential.map(_.sid) == (0L until n))
      assert(ds.collect().toSeq.sortBy(_.sid) == sequential)
      for (slices <- Seq(1, 3, 16))
        assert(EventGen.sliced(spark, spec, n, slices).collect().toSeq == sequential, s"$spec $slices")
    }
    // the same public call at two leaf parallelisms
    val leaf = "spark.sql.leafNodeDefaultParallelism"
    val rows = Seq("1", "5").map { p =>
      spark.conf.set(leaf, p)
      try EventGen.stock(spark, n, 19, seed = 13).collect().toSeq.sortBy(_.sid)
      finally spark.conf.unset(leaf)
    }
    assert(rows(0) == rows(1))
  }

  test("times are unique, increasing, and equal to sids (one event per second)") {
    val evs = EventGen.transport(spark, 400, 30, seed = 17).collect().sortBy(_.sid)
    assert(evs.map(_.time).distinct.length == evs.length)
    assert(evs.forall(e => e.time == e.sid))
  }

  test("type mix approximates the configured weights") {
    val evs = EventGen.stream(spark, 5000, 10, Seq("A" -> 0.75, "B" -> 0.25),
      seed = 1, walkValues = false).collect()
    val fracA = evs.count(_.etype == "A").toDouble / evs.length
    assert(math.abs(fracA - 0.75) < 0.05, s"fracA=$fracA")
  }

  test("group cardinality matches the requested partition count") {
    val evs = EventGen.activity(spark, 2000, 14, seed = 11).collect()
    assert(evs.map(_.group).distinct.length == 14)
    val evs2 = EventGen.transport(spark, 2000, 30, seed = 17).collect()
    assert(evs2.map(_.group).distinct.length == 30)
  }

  test("uniform values lie in [0, 100); walk values follow a per-group walk") {
    val uni = EventGen.transport(spark, 1000, 5, seed = 17).collect()
    assert(uni.forall(e => e.value >= 0 && e.value < 100))
    // a random walk's consecutive per-group steps are bounded by the step size
    val walk = EventGen.stock(spark, 1000, 5, seed = 13).collect()
      .groupBy(_.group).values
    walk.foreach { g =>
      g.sortBy(_.sid).sliding(2).foreach {
        case Array(x, y) => assert(math.abs(y.value - x.value) <= 50.0 + 1e-9)
        case _           =>
      }
    }
  }

  test("oracle: per-group event counts agree with DuckDB over the same rows") {
    val ds = EventGen.stock(spark, 800, 19, seed = 13).cache(); ds.count()
    val got = ds.toDF().withColumnRenamed("group", "grp")
      .groupBy($"grp").agg(count(lit(1)).cast("double") as "cnt")
    Oracle.assertEquivalent(got,
      "SELECT grp, CAST(count(*) AS DOUBLE) AS cnt FROM events GROUP BY grp",
      "events" -> ds.toDF().withColumnRenamed("group", "grp"))
  }

  test("oracle: per-type counts agree with DuckDB") {
    val ds = EventGen.transport(spark, 600, 30, seed = 17).cache(); ds.count()
    val got = ds.toDF().groupBy($"etype").agg(count(lit(1)).cast("double") as "cnt")
    Oracle.assertEquivalent(got,
      "SELECT etype, CAST(count(*) AS DOUBLE) AS cnt FROM events GROUP BY etype",
      "events" -> ds.toDF().withColumnRenamed("group", "grp"))
  }
}
