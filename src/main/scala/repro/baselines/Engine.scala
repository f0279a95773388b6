package repro.baselines

import repro.core._

/** Cap on the work of one substream run: each capped engine counts the
  * iterations of its inner loop. A run past the cap aborts and reports DNF
  * ("does not terminate", as in the paper's §9 plots). No clock is read, so
  * DNF depends on the events and the query alone. */
final case class Budget(maxWork: Long = 10_000_000_000L) extends Serializable {
  def check(work: Long): Unit = if (work > maxWork) throw new BudgetExceeded
}

/** Result of evaluating a query over one substream.
  *
  * @param agg       aggregate over finished trends (undefined if dnf)
  * @param peakUnits memory proxy: max simultaneously retained aggregates,
  *                  events, pointers, counters, or trend elements
  * @param trends    number of trends the engine explicitly constructed
  *                  (0 for online engines)
  * @param work      the engine's work count (see [[Budget]]; 0 for Cogra)
  * @param dnf       true if the work cap was exceeded
  */
final case class RunResult(agg: Agg, peakUnits: Long, trends: Long, work: Long, dnf: Boolean)

object RunResult {
  val DNF: RunResult = RunResult(Agg.zero, 0L, 0L, 0L, dnf = true)
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

/** Signals a work count past its cap inside an engine. */
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
      RunResult(a.result, a.peakUnits, 0L, 0L, dnf = false)
    }
  }

  def all: Seq[TrendEngine] = Seq(FlinkLike, Sase, Greta, ASeq, CograEngine)
}
