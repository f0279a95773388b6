package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

/** One aggregation result per (group, window) (paper Definition 6: the
  * RETURN clause values per group per window). ±∞ min/max mean "no finished
  * trend contains a target-type event". */
final case class WinResult(group: String, wid: Long, count: Double, countE: Double,
                           sum: Double, min: Double, max: Double, avg: Double)

/** Spark batch execution of Cogra: per (group, window) substream
  * ([[Substreams]]) incremental aggregation via the typed Dataset API. */
object CograBatch {

  def run(spark: SparkSession, events: Dataset[Ev], q: TrendQuery): Dataset[WinResult] = {
    import spark.implicits._
    Substreams.map(events, q.window) { (g, wid, evs) =>
      val agg = Cogra.run(evs, q)
      WinResult(g, wid, agg.count, agg.countE, agg.sum, agg.min, agg.max, agg.avg)
    }
  }
}
