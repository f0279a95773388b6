package repro.baselines

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._

/** Per-(group, window) result of an engine run, with run statistics.
  * `computeMs` is the pure aggregation time inside the task, excluding
  * Spark shuffle/scheduling — the benchmarks report both. */
final case class EngineWinResult(engine: String, group: String, wid: Long,
                                 count: Double, countE: Double, sum: Double,
                                 min: Double, max: Double,
                                 peakUnits: Long, trends: Long, work: Long, dnf: Boolean,
                                 computeMs: Double)

/** Runs any [[TrendEngine]] over a windowed, grouped event stream on Spark —
  * the common experimental harness of §9: identical partitioning for every
  * engine, so measured differences come from the aggregation strategy. */
object SparkRunner {

  def run(spark: SparkSession, events: Dataset[Ev], q: TrendQuery,
          engine: TrendEngine, budget: Budget): Dataset[EngineWinResult] = {
    import spark.implicits._
    Substreams.map(events, q.window) { (g, wid, evs) =>
      val t0 = System.nanoTime()
      val r = engine.run(evs, q, budget)
      val ms = (System.nanoTime() - t0) / 1e6
      EngineWinResult(engine.name, g, wid, r.agg.count, r.agg.countE, r.agg.sum,
        r.agg.min, r.agg.max, r.peakUnits, r.trends, r.work, r.dnf, ms)
    }
  }
}
