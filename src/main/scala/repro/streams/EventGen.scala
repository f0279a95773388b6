package repro.streams

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Ev
import scala.util.chaining._

/** Synthetic event-stream generators standing in for the paper's three
  * data sets (§9.1); see DESIGN.md §2 for the substitution rationale.
  *
  * All generators are deterministic in (n, seed): every draw is a
  * counter-based hash of (seed, sid, draw index), so the rows do not depend
  * on how Spark partitions the stream. They emit one event per second
  * (time = sid), and assign groups pseudo-randomly so substreams interleave
  * like real multiplexed streams. Values are either a per-group random walk
  * (heart rates, stock prices) or i.i.d. uniform (waiting times).
  */
object EventGen {

  /** Draw `k` of event `i`, uniform in [0, 1): a SplitMix64 finalizer of
    * (seed, i, k) (Steele, Lea & Flood, OOPSLA 2014). */
  private def unit(seed: Long, i: Long, k: Int): Double = {
    var z = seed * 0x9E3779B97F4A7C15L + i * 0xD1B54A32D192ED03L + k * 0x8CB92BA72F3D8DD7L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    ((z ^ (z >>> 31)) >>> 11) * (1.0 / (1L << 53))
  }

  /** One stream. Event `i` draws its group (k = 0), its type (1) and its
    * walk step or uniform value (2). `slice` generates events `from` until
    * `until`: `walk` holds each group's value before `from` (100 before sid
    * 0) and is advanced in place, one step per event. */
  private[streams] final case class Spec(nGroups: Int, typeWeights: Seq[(String, Double)],
                                         seed: Long, walkValues: Boolean) {
    private val names = Array.tabulate(nGroups)(g => s"g$g")
    private val cum = typeWeights.scanLeft(("", 0.0)) { case ((_, acc), (t, w)) => (t, acc + w) }.tail
    def slice(from: Long, until: Long, walk: Array[Double]): Iterator[Ev] =
      (from until until).iterator.map { i =>
        val g = (unit(seed, i, 0) * nGroups).toInt
        val u = unit(seed, i, 1)
        val step = unit(seed, i, 2) * 100.0
        if (walkValues) walk(g) += step - 50.0
        Ev(i, i, cum.find(u < _._2).getOrElse(cum.last)._1, names(g), if (walkValues) walk(g) else step)
      }
  }

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
    require(math.abs(typeWeights.map(_._2).sum - 1.0) < 1e-9, "type weights must sum to 1")
    sliced(spark, Spec(nGroups, typeWeights, seed, walkValues), n, spark.sparkContext.defaultParallelism)
  }

  /** The stream cut into `slices` sid ranges, one Spark partition each. The
    * driver walks the stream once for each slice's starting walk values;
    * each task regenerates its own slice from them. */
  private[streams] def sliced(spark: SparkSession, spec: Spec, n: Long, slices: Int): Dataset[Ev] = {
    import spark.implicits._
    val bounds = (0 to slices).map(p => p * n / slices)
    val walk = Array.fill(spec.nGroups)(100.0)
    val starts = bounds.init.zip(bounds.tail).map { case (from, until) =>
      walk.clone().tap(_ => spec.slice(from, until, walk).foreach(_ => ()))
    }
    spark.sparkContext.parallelize(0 until slices, slices).toDS()
      .flatMap(p => spec.slice(bounds(p), bounds(p + 1), starts(p).clone()))
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
