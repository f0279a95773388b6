package repro.streams

import org.apache.spark.sql.{Column, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Ev

/** Synthetic event-stream generators standing in for the paper's three
  * data sets (§9.1); see DESIGN.md §2 for the substitution rationale.
  *
  * All generators are deterministic in (n, seed), emit one event per second
  * (time = sid), and assign groups pseudo-randomly so substreams interleave
  * like real multiplexed streams. Values are either a per-group random walk
  * (heart rates, stock prices) or i.i.d. uniform (waiting times).
  */
object EventGen {

  /** Core generator.
    *
    * @param typeWeights event-type mix, e.g. Seq("A" -> 0.75, "B" -> 0.25);
    *                    weights must sum to 1. Types outside the query's
    *                    pattern model irrelevant events.
    * @param walkValues  per-group random walk (else i.i.d. uniform [0,100))
    */
  def stream(spark: SparkSession, n: Long, nGroups: Int,
             typeWeights: Seq[(String, Double)], seed: Long,
             walkValues: Boolean): Dataset[Ev] = {
    import spark.implicits._
    require(math.abs(typeWeights.map(_._2).sum - 1.0) < 1e-9, "type weights must sum to 1")
    val cum = typeWeights.scanLeft(("", 0.0)) { case ((_, acc), (t, w)) => (t, acc + w) }.tail
    val r = rand(seed + 1)
    val typeCol: Column = cum.init.foldRight(lit(cum.last._1)) { case ((t, c), rest) =>
      when(r < c, lit(t)).otherwise(rest)
    }
    val base = spark.range(n).select(
      $"id" as "sid",
      $"id" as "time",
      typeCol as "etype",
      concat(lit("g"), (rand(seed) * nGroups).cast("int")) as "group",
      (rand(seed + 2) * 100.0) as "step")
    val withValue =
      if (walkValues)
        base.withColumn("value",
          lit(100.0) + sum(col("step") - 50.0)
            .over(Window.partitionBy("group").orderBy("sid")))
      else base.withColumn("value", col("step"))
    withValue.select($"sid", $"time", $"etype", $"group", $"value").as[Ev]
  }

  /** Share of irrelevant X reports in the activity stream. */
  private val IrrelevantFrac = 0.1
  /** Share of A events in the stock stream. */
  private val FracA = 0.75

  /** Physical-activity monitoring substitute (paper [34]): 14 people,
    * heart-rate measurements M on a per-person random walk, with a fraction
    * of irrelevant reports X that break contiguity (q1-style CONT queries). */
  def activity(spark: SparkSession, n: Long, nPersons: Int = 14, seed: Long = 11): Dataset[Ev] =
    stream(spark, n, nPersons, Seq("M" -> (1 - IrrelevantFrac), "X" -> IrrelevantFrac),
           seed, walkValues = true)

  /** Stock-transaction substitute (paper [3]): 19 companies, prices on a
    * per-company random walk; types A/B for q3-style SEQ(A+, B) queries. */
  def stock(spark: SparkSession, n: Long, nCompanies: Int = 19, seed: Long = 13): Dataset[Ev] =
    stream(spark, n, nCompanies, Seq("A" -> FracA, "B" -> (1 - FracA)),
           seed, walkValues = true)

  /** Public-transportation substitute (paper's own synthetic generator):
    * 30 passengers, uniform waiting times, trip-event types A/B plus
    * irrelevant C events (q2-style queries). */
  def transport(spark: SparkSession, n: Long, nPassengers: Int = 30, seed: Long = 17): Dataset[Ev] =
    stream(spark, n, nPassengers, Seq("A" -> 0.5, "B" -> 0.3, "C" -> 0.2),
           seed, walkValues = false)
}
