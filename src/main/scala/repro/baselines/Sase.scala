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
  *
  * The two constructions, [[constructAny]] and [[constructNextCont]], are the
  * only trend constructors of the two-step engines: Flink stores what they
  * build, SASE aggregates it. SASE's work (see [[Budget]]) is
  * [[constructAny]]'s DFS steps and stack scans under ANY, and the
  * partial-trend elements [[constructNextCont]] builds under NEXT/CONT.
  */
object Sase extends TrendEngine {
  val name = "SASE"
  val nativeKleene = true
  def supportsSemantics(s: Semantics) = true
  val supportsAdjPreds = true
  val online = false

  def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult =
    try if (q.semantics == Semantics.ANY) runAny(events, q, budget) else runNextCont(events, q, budget)
    catch { case _: BudgetExceeded => RunResult.DNF }

  /** Two-step ANY: linear memory (the stacks), exponential construction
    * time — SASE's profile. */
  private def runAny(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult = {
    val info = q.info
    // events kept in stacks, plus one pointer per predecessor stack
    val units = events.iterator.filter(e => info.contains(e.etype))
      .map(e => 1L + info.preds(e.etype).size).sum
    var trendCount = 0L
    var acc = Agg.zero
    val work = constructAny(events, q, budget) { trend =>
      trendCount += 1
      acc = Agg.merge(acc, BruteForce.trendAgg(trend, q.target))
    }
    RunResult(acc, units + info.types.size, trendCount, work, dnf = false)
  }

  /** Two-step NEXT/CONT: finished trends are aggregated batch by batch, when
    * the tip is of the end type; the memory proxy is the peak size of the
    * partial-trend set, and each new set's size counts as work. */
  private def runNextCont(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult = {
    var work = 0L
    var trendCount = 0L
    var acc = Agg.zero
    var peak = 0L
    constructNextCont(events, q) { (partials, finished) =>
      val units = partials.iterator.map(_.size.toLong).sum
      work += units; budget.check(work)
      peak = math.max(peak, units)
      if (finished) {
        trendCount += partials.size
        acc = Agg.merge(acc, BruteForce.aggregate(partials, q.target))
      }
    }
    RunResult(acc, peak, trendCount, work, dnf = false)
  }

  /** ANY construction: per-type stacks, one pointer per (event, predecessor
    * stack) marking the latest earlier entry; a DFS from each end-type event
    * scans down each pointed stack. `visit` gets every trend, end event
    * first, in a buffer that is reused: copy it to keep it. Returns the work:
    * one per DFS step and one per stack entry scanned, capped by `budget`. */
  private[baselines] def constructAny(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget)
                                     (visit: collection.Seq[Ev] => Unit): Long = {
    val info = q.info
    val relevant = events.filter(e => info.contains(e.etype))
    val byType = mutable.Map.empty[String, mutable.ArrayBuffer[Int]]
    info.types.foreach(t => byType(t) = mutable.ArrayBuffer.empty[Int])
    // pointers(i): for each predecessor type of event i's type, how many
    // events of that type precede i (= stack position to scan down from)
    val pointers = Array.ofDim[Map[String, Int]](relevant.size)
    for (i <- relevant.indices) {
      val e = relevant(i)
      pointers(i) = info.preds(e.etype).iterator.map(pt => pt -> byType(pt).size).toMap
      byType(e.etype) += i
    }
    // Step 2: DFS constructs each trend (pointers run backwards in time).
    val cur = mutable.ArrayBuffer.empty[Ev] // reversed trend under construction
    var work = 0L
    def dfs(i: Int): Unit = {
      work += 1; budget.check(work)
      val e = relevant(i)
      cur += e
      if (info.isStart(e.etype)) visit(cur) // trend complete (built end -> start)
      for ((pt, top) <- pointers(i); k <- (top - 1) to 0 by -1) {
        work += 1; budget.check(work)
        val j = byType(pt)(k)
        if (AdjPred.holds(q.adjPreds, relevant(j), e)) dfs(j)
      }
      cur.remove(cur.size - 1)
    }
    for (i <- relevant.indices if info.isEnd(relevant(i).etype)) dfs(i)
    work
  }

  /** NEXT/CONT construction: the set of partial trends, all ending at the
    * single current tip. After each event that starts or extends partial
    * trends, `visit(partials, finished)` gets the whole set; `finished` says
    * the tip is of the end type, so every partial is a finished trend. */
  private[baselines] def constructNextCont(events: IndexedSeq[Ev], q: TrendQuery)
                                          (visit: (Vector[Vector[Ev]], Boolean) => Unit): Unit = {
    val info = q.info
    val cont = q.semantics == Semantics.CONT
    var partials = Vector.empty[Vector[Ev]]
    var tip: Ev = null
    for (e <- events) {
      val tpe = e.etype
      val inP = info.contains(tpe)
      val isStart = inP && info.isStart(tpe)
      val isAdj = inP && tip != null && info.preds(tpe).contains(tip.etype) &&
        AdjPred.holds(q.adjPreds, tip, e)
      if (isStart || isAdj) {
        val extended = if (isAdj) partials.map(_ :+ e) else Vector.empty
        val started = if (isStart) Vector(Vector(e)) else Vector.empty
        partials = extended ++ started
        visit(partials, info.isEnd(tpe))
        tip = e
      } else if (cont) {
        partials = Vector.empty; tip = null
      }
    }
  }
}
