package repro.core

/** Predicate on adjacent events (paper §3.2): restricts whether an event of
  * type `prevType` already in a trend and a new event of type `nextType`
  * are adjacent (Definition 7, condition 3).
  */
sealed trait AdjPred extends Serializable {
  def prevType: String
  def nextType: String
  /** Evaluate on a concrete adjacent pair (prev earlier in the trend). */
  def eval(prev: Ev, e: Ev): Boolean
  /** True if this predicate constrains the given type pair. */
  final def appliesTo(pt: String, nt: String): Boolean = pt == prevType && nt == nextType
}

object AdjPred {
  /** `prevType.value OP NEXT(nextType).value`, e.g. q1's
    * `M.rate < NEXT(M).rate` or q3's `A.price > NEXT(A).price`. */
  final case class Cmp(prevType: String, nextType: String, op: String) extends AdjPred {
    def eval(prev: Ev, e: Ev): Boolean = op match {
      case "<"  => prev.value < e.value
      case "<=" => prev.value <= e.value
      case ">"  => prev.value > e.value
      case ">=" => prev.value >= e.value
      case "="  => prev.value == e.value
      case "!=" => prev.value != e.value
      case o    => throw new IllegalArgumentException(s"unknown comparison operator: $o")
    }
  }

  /** Deterministic pseudo-random predicate with a target selectivity
    * `sel` — stands in for the tunable-selectivity predicates of the
    * paper's §9.3 experiment. Uniform in the pair when values are drawn
    * from a continuous distribution. */
  final case class Sel(prevType: String, nextType: String, sel: Double) extends AdjPred {
    def eval(prev: Ev, e: Ev): Boolean = {
      val h = (prev.value * 7919.0 + e.value * 104729.0 + 0.123456789)
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
