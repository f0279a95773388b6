package repro.baselines

import repro.core._

/** Resource budget for a single substream run. Two-step engines abort and
  * report DNF ("does not terminate", as in the paper's §9 plots) when a
  * budget is exceeded. */
final case class Budget(maxTrends: Long = 2_000_000L,
                        maxUnits: Long = 20_000_000L,
                        maxMillis: Long = 60_000L) extends Serializable {
  def deadline: Long = System.currentTimeMillis() + maxMillis
}

/** Result of evaluating a query over one substream.
  *
  * @param agg       aggregate over finished trends (undefined if dnf)
  * @param peakUnits memory proxy: max simultaneously retained aggregates,
  *                  events, pointers, counters, or trend elements
  * @param trends    number of trends the engine explicitly constructed
  *                  (0 for online engines)
  * @param dnf       true if a budget was exceeded
  */
final case class RunResult(agg: Agg, peakUnits: Long, trends: Long, dnf: Boolean)

object RunResult {
  val DNF: RunResult = RunResult(Agg.zero, 0L, 0L, dnf = true)
}

/** An event-trend aggregation engine compared in the paper's Table 9.
  *
  * `nativeKleene` reflects Table 9's "Kleene closure" column; engines
  * without it (Flink, A-Seq) still evaluate Kleene queries here via the
  * paper's flattening into fixed-length sequence workloads (§9.1). */
trait TrendEngine extends Serializable {
  def name: String
  def nativeKleene: Boolean
  def supportsSemantics(s: Semantics): Boolean
  def supportsAdjPreds: Boolean
  /** Online = aggregates without constructing trends (Table 9 last column). */
  def online: Boolean

  def supports(q: TrendQuery): Boolean =
    supportsSemantics(q.semantics) && (q.adjPreds.isEmpty || supportsAdjPreds)

  /** Evaluate over one (group, window) substream, events (time, sid)-ordered. */
  def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult
}

/** Signals a budget overrun inside an engine. */
final class BudgetExceeded extends RuntimeException("budget exceeded")

object Engines {
  /** Cogra wrapped as a TrendEngine (Table 9 last row: supports everything
    * and is the only engine that is both Kleene-native and online for all
    * semantics). */
  object CograEngine extends TrendEngine {
    val name = "Cogra"
    val nativeKleene = true
    def supportsSemantics(s: Semantics) = true
    val supportsAdjPreds = true
    val online = true
    def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult = {
      val a = Cogra.aggregator(q)
      a.onEvents(events)
      RunResult(a.result, a.peakUnits, 0L, dnf = false)
    }
  }

  def all: Seq[TrendEngine] = Seq(FlinkLike, Sase, Greta, ASeq, CograEngine)
}
