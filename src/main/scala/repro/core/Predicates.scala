package repro.core

/** Predicate on adjacent events (paper §3.2): restricts whether an event of
  * type `prevType` already in a trend and a new event of type `nextType`
  * are adjacent (Definition 7, condition 3).
  */
sealed trait AdjPred extends Serializable {
  def prevType: String
  def nextType: String
  /** Evaluate on the attribute values of an adjacent pair (prev earlier in
    * the trend): the compiled query ([[Plan]]) calls this without an `Ev`. */
  def test(prev: Double, next: Double): Boolean
  /** Evaluate on a concrete adjacent pair (prev earlier in the trend). */
  final def eval(prev: Ev, e: Ev): Boolean = test(prev.value, e.value)
  /** True if this predicate constrains the given type pair. */
  final def appliesTo(pt: String, nt: String): Boolean = pt == prevType && nt == nextType
}

object AdjPred {
  /** `prevType.value OP NEXT(nextType).value`, e.g. q1's
    * `M.rate < NEXT(M).rate` or q3's `A.price > NEXT(A).price`. An unknown
    * operator is rejected here, not at the first adjacent pair. */
  final case class Cmp(prevType: String, nextType: String, op: String) extends AdjPred {
    /** The operator as the regions of `prev` relative to `next` it admits. */
    val mask: Int = Cmp.masks.getOrElse(op,
      throw new IllegalArgumentException(s"unknown comparison operator: $op"))
    def test(prev: Double, next: Double): Boolean = Cmp.test(mask, prev, next)
  }

  object Cmp {
    /** Regions of `prev` relative to `next`: below, at, above, or unordered
      * (a NaN on either side, as IEEE comparison has it; -0.0 is at 0.0). */
    val Below = 1
    val At = 2
    val Above = 4
    val Unordered = 8
    /** No comparison: every pair is admitted. */
    val All: Int = Below | At | Above | Unordered

    /** A conjunction of comparisons on one pair admits the AND of their
      * masks (every bound refers to the same value `next`). */
    val masks: Map[String, Int] = Map(
      "<" -> Below, "<=" -> (Below | At), ">" -> Above, ">=" -> (At | Above),
      "=" -> At, "!=" -> (Below | Above | Unordered))

    def region(prev: Double, next: Double): Int =
      if (prev < next) Below else if (prev == next) At else if (prev > next) Above else Unordered

    def test(mask: Int, prev: Double, next: Double): Boolean = (mask & region(prev, next)) != 0
  }

  /** Deterministic pseudo-random predicate with a target selectivity
    * `sel` — stands in for the tunable-selectivity predicates of the
    * paper's §9.3 experiment. Uniform in the pair when values are drawn
    * from a continuous distribution. */
  final case class Sel(prevType: String, nextType: String, sel: Double) extends AdjPred {
    def test(prev: Double, next: Double): Boolean = {
      val h = (prev * 7919.0 + next * 104729.0 + 0.123456789)
      val frac = h - math.floor(h)
      frac < sel
    }
  }

  /** All predicates applicable to the pair hold (vacuously true if none). */
  def holds(preds: Seq[AdjPred], prev: Ev, e: Ev): Boolean =
    preds.forall(p => !p.appliesTo(prev.etype, e.etype) || p.eval(prev, e))
}

/** Predicate classifier (paper §3.2 + Theorem 5.1): splits the pattern's
  * types into `T_t` (type-grained aggregates suffice) and `T_e` (events must
  * be stored because some predicate restricts their adjacency to a type
  * they precede).
  */
object PredicateClassifier {
  /** Types that must be kept at event granularity: E is event-grained iff
    * some predicate `(E.attr op Ex.attr)` exists with E ∈ predTypes(Ex). */
  def eventGrainedTypes(info: PatternInfo, preds: Seq[AdjPred]): Set[String] =
    info.types.filter { t =>
      preds.exists(p => p.prevType == t && info.preds(p.nextType).contains(t))
    }.toSet
}
