package repro.core

/** A [[TrendQuery]] compiled once into int-indexed tables (cached as
  * `TrendQuery.plan`), so that an aggregator looks up no type name and
  * evaluates no predicate list per event. A type's id is its index in
  * `types`; a (prev, next) type pair's index is `prev * n + next`.
  */
final class Plan(q: TrendQuery) {
  private val info = q.info

  /** The pattern's event types, in pattern order. */
  val types: Array[String] = info.types.toArray
  val n: Int = types.length

  /** Open-addressed table from a type name's hash to its id (-1: empty),
    * at most half full. */
  private val hashMask = (Integer.highestOneBit(2 * n) << 1) - 1
  private val ids: Array[Int] = {
    val a = Array.fill(hashMask + 1)(-1)
    for (i <- 0 until n) {
      var s = types(i).hashCode & hashMask
      while (a(s) >= 0) s = (s + 1) & hashMask
      a(s) = i
    }
    a
  }

  /** Id of type `t`, or -1 if it is not in the pattern. Falls back to
    * `equals`: deserialized type names are not interned. */
  def id(t: String): Int = {
    val h = t.hashCode
    var s = h & hashMask
    var i = ids(s)
    while (i >= 0 && !((types(i) eq t) || (types(i).hashCode == h && types(i) == t))) {
      s = (s + 1) & hashMask
      i = ids(s)
    }
    i
  }

  val start: Int = id(info.start)
  val end: Int = id(info.end)
  val target: Int = id(q.target)

  /** preds(t): the ids of predTypes(t). */
  val preds: Array[Array[Int]] = types.map(t => info.preds(t).toArray.map(id).sorted)
  private val followTable: Array[Boolean] = Array.tabulate(n * n)(k => preds(k % n).contains(k / n))

  private def bound(k: Int): Seq[AdjPred] = q.adjPreds.filter(_.appliesTo(types(k / n), types(k % n)))
  /** Per pair: the AND of its comparisons' masks (`Cmp.All` if none) ... */
  private val masks: Array[Int] = Array.tabulate(n * n) { k =>
    bound(k).foldLeft(AdjPred.Cmp.All) {
      case (m, c: AdjPred.Cmp) => m & c.mask
      case (m, _) => m
    }
  }
  /** ... and its other predicates, tested one by one. */
  private val others: Array[Array[AdjPred]] =
    Array.tabulate(n * n)(k => bound(k).filterNot(_.isInstanceOf[AdjPred.Cmp]).toArray)

  /** True if `prev` is in predTypes(`next`). */
  def follows(prev: Int, next: Int): Boolean = followTable(prev * n + next)
  /** All predicates on the pair hold for these values (Definition 7,
    * condition 3). */
  def holds(prev: Int, next: Int, prevValue: Double, value: Double): Boolean = {
    val k = prev * n + next
    val m = masks(k)
    (m == AdjPred.Cmp.All || AdjPred.Cmp.test(m, prevValue, value)) && {
      val o = others(k)
      var i = 0
      while (i < o.length && o(i).test(prevValue, value)) i += 1
      i == o.length
    }
  }
  /** True if the pair's predicates are all comparisons (or none), so that
    * the values of the adjacent earlier events of `prev` lie in the ranges
    * of `mask(prev, next)`. */
  def ranged(prev: Int, next: Int): Boolean = others(prev * n + next).isEmpty
  def mask(prev: Int, next: Int): Int = masks(prev * n + next)

  /** Mixed granularity's split (Algorithm 2 lines 1–4). */
  val eventGrainedTypes: Set[String] = PredicateClassifier.eventGrainedTypes(info, q.adjPreds)
  val typeGrainedTypes: Set[String] = info.typeSet -- eventGrainedTypes
  val eventGrained: Array[Boolean] = types.map(eventGrainedTypes)
  /** T_e types with a ranged successor pair: their stored events are
    * indexed by value. */
  val indexed: Array[Boolean] =
    Array.tabulate(n)(p => eventGrained(p) && (0 until n).exists(t => follows(p, t) && ranged(p, t)))
}
