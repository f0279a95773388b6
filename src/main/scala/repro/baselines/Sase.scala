package repro.baselines

import repro.core._
import scala.collection.mutable

/** SASE baseline (paper §9.1): Kleene-native two-step engine. Events are
  * kept in per-type stacks with predecessor pointers; a DFS traverses the
  * pointers to construct every trend, which is aggregated on the fly (only
  * the current trend is stored, unlike Flink).
  *
  * Under NEXT/CONT the construction follows the same single-tip operational
  * semantics as the paper's Algorithm 3 (see DESIGN.md), so SASE and Cogra
  * return identical aggregates — the paper's correctness criterion that the
  * online approach matches the two-step approach.
  */
object Sase extends TrendEngine {
  val name = "SASE"
  val nativeKleene = true
  def supportsSemantics(s: Semantics) = true
  val supportsAdjPreds = true
  val online = false

  def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult =
    try {
      q.semantics match {
        case Semantics.ANY => runAny(events, q, budget)
        case _             => runNextCont(events, q, budget)
      }
    } catch { case _: BudgetExceeded => RunResult.DNF }

  /** Two-step ANY: per-type stacks, one pointer per (event, predecessor
    * stack) marking the latest earlier entry; the DFS scans down each
    * pointed stack to construct every trend. Linear memory, exponential
    * construction time — SASE's profile. */
  private def runAny(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult = {
    val info = q.info
    val deadline = budget.deadline
    val relevant = events.filter(e => info.contains(e.etype))
    val byType = mutable.Map.empty[String, mutable.ArrayBuffer[Int]]
    info.types.foreach(t => byType(t) = mutable.ArrayBuffer.empty[Int])
    // pointers(i): for each predecessor type of event i's type, how many
    // events of that type precede i (= stack position to scan down from)
    val pointers = Array.ofDim[Map[String, Int]](relevant.size)
    var units = relevant.size.toLong // events kept in stacks
    for (i <- relevant.indices) {
      val e = relevant(i)
      pointers(i) = info.preds(e.etype).iterator.map(pt => pt -> byType(pt).size).toMap
      units += pointers(i).size
      if (units > budget.maxUnits) throw new BudgetExceeded
      byType(e.etype) += i
    }
    // Step 2: DFS constructs each trend (pointers run backwards in time).
    var trendCount = 0L
    var acc = Agg.zero
    val cur = mutable.ArrayBuffer.empty[Ev] // reversed trend under construction
    def emit(): Unit = {
      trendCount += 1
      if (trendCount > budget.maxTrends || System.currentTimeMillis() > deadline)
        throw new BudgetExceeded
      acc = Agg.merge(acc, BruteForce.trendAgg(cur, q.target))
    }
    var steps = 0L
    def dfs(i: Int): Unit = {
      steps += 1
      if ((steps & 0xFFFF) == 0 && System.currentTimeMillis() > deadline)
        throw new BudgetExceeded
      val e = relevant(i)
      cur += e
      if (info.isStart(e.etype)) emit() // trend complete (built end -> start)
      for ((pt, top) <- pointers(i); k <- (top - 1) to 0 by -1) {
        val j = byType(pt)(k)
        if (AdjPred.holds(q.adjPreds, relevant(j), e)) dfs(j)
      }
      cur.remove(cur.size - 1)
    }
    for (i <- relevant.indices if info.isEnd(relevant(i).etype)) dfs(i)
    RunResult(acc, units + info.types.size, trendCount, dnf = false)
  }

  /** Two-step NEXT/CONT: maintains the set of partial trends, all ending at
    * the single current tip; finished trends are aggregated when the tip is
    * of the end type. */
  private def runNextCont(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult = {
    val info = q.info
    val cont = q.semantics == Semantics.CONT
    val deadline = budget.deadline
    var partials = Vector.empty[Vector[Ev]]
    var tip: Ev = null
    var trendCount = 0L
    var acc = Agg.zero
    var units = 0L
    var peak = 0L
    for (e <- events) {
      if (System.currentTimeMillis() > deadline) throw new BudgetExceeded
      val tpe = e.etype
      val inP = info.contains(tpe)
      val isStart = inP && info.isStart(tpe)
      val isAdj = inP && tip != null && info.preds(tpe).contains(tip.etype) &&
        AdjPred.holds(q.adjPreds, tip, e)
      if (isStart || isAdj) {
        val extended = if (isAdj) partials.map(_ :+ e) else Vector.empty
        val started = if (isStart) Vector(Vector(e)) else Vector.empty
        partials = extended ++ started
        units = partials.iterator.map(_.size.toLong).sum
        peak = math.max(peak, units)
        if (units > budget.maxUnits) throw new BudgetExceeded
        if (info.isEnd(tpe)) {
          trendCount += partials.size
          if (trendCount > budget.maxTrends) throw new BudgetExceeded
          acc = Agg.merge(acc, BruteForce.aggregate(partials, q.target))
        }
        tip = e
      } else if (cont) {
        partials = Vector.empty; tip = null
      }
    }
    RunResult(acc, peak, trendCount, dnf = false)
  }
}
