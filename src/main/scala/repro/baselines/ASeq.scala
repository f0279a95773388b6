package repro.baselines

import repro.core._
import scala.collection.mutable

/** A-Seq baseline (paper §9.1 and [33]): online aggregation of fixed-length
  * event sequences under skip-till-any-match, without Kleene closure and
  * without adjacent-event predicates (Table 9). A Kleene query is flattened
  * into the workload of all fixed-length sequence queries up to the longest
  * possible match; each query maintains prefix counters updated on every
  * event.
  *
  * Counters are shared across queries with a common prefix (see DESIGN.md:
  * this is the implementation the paper's reported linear memory growth
  * implies): the counter set is the lazily-built trie of realized pattern
  * prefixes, so state is O(#distinct prefixes) and per-event work scans all
  * counters.
  */
object ASeq extends TrendEngine {
  val name = "A-Seq"
  val nativeKleene = false
  def supportsSemantics(s: Semantics) = s == Semantics.ANY
  val supportsAdjPreds = false
  val online = true

  private final class Node(val etype: String, val depth: Int, val parent: Int) {
    var agg: Agg = Agg.zero
    val children = mutable.Set.empty[String]
  }

  def run(events: IndexedSeq[Ev], q: TrendQuery, budget: Budget): RunResult =
    try {
      require(q.adjPreds.isEmpty, "A-Seq does not support predicates on adjacent events")
      val info = q.info
      var work = 0L
      val nodes = mutable.ArrayBuffer.empty[Node]
      for (e <- events) {
        val tpe = e.etype
        if (info.contains(tpe)) {
          val isTarget = tpe == q.target
          // All counters must advance against the pre-event state. The trie
          // is append-only, so a parent's index is smaller than its child's:
          // (1) materialize new prefixes first (parents still hold pre-event
          //     aggregates), (2) then update existing counters of this type
          //     in descending index order (a same-type parent is updated
          //     after its child read it).
          val existing = nodes.size
          work += existing; budget.check(work) // each pass below visits every counter
          var k = 0
          while (k < existing) {
            val p = nodes(k)
            if (info.preds(tpe).contains(p.etype) && !p.children(tpe) && !p.agg.isZero) {
              p.children += tpe
              val c = new Node(tpe, p.depth + 1, k)
              c.agg = Agg.extend(p.agg, e.value, isTarget)
              nodes += c
            }
            k += 1
          }
          var hasRoot = false
          k = existing - 1
          while (k >= 0) {
            val n = nodes(k)
            if (n.etype == tpe) {
              val src = if (n.depth == 1) Agg.startUnit else nodes(n.parent).agg
              n.agg = Agg.merge(n.agg, Agg.extend(src, e.value, isTarget))
            }
            if (n.depth == 1 && n.etype == tpe) hasRoot = true
            k -= 1
          }
          if (info.isStart(tpe) && !hasRoot) {
            val c = new Node(tpe, 1, -1)
            c.agg = Agg.extend(Agg.startUnit, e.value, isTarget)
            nodes += c
          }
        }
      }
      var acc = Agg.zero
      var queries = 0L
      nodes.foreach { n =>
        if (n.etype == info.end) { acc = Agg.merge(acc, n.agg); queries += 1 }
      }
      RunResult(acc, nodes.size.toLong, queries, work, dnf = false)
    } catch { case _: BudgetExceeded => RunResult.DNF }
}
