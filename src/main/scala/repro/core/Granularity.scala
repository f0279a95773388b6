package repro.core

/** The granularity at which trend aggregates are maintained (paper Fig. 1). */
sealed trait Granularity extends Serializable

object Granularity {
  /** One aggregate per event type in the pattern (paper §4). */
  case object TypeG extends Granularity
  /** Aggregates per stored event for predicate-restricted types, per type
    * otherwise (paper §5). */
  case object MixedG extends Granularity
  /** Only the final aggregate and the last matched event's aggregate
    * (paper §6). */
  case object PatternG extends Granularity

  /** Granularity selector (paper Table 4). */
  def select(q: TrendQuery): Granularity = q.semantics match {
    case Semantics.ANY if q.adjPreds.isEmpty => TypeG
    case Semantics.ANY                       => MixedG
    case Semantics.NEXT | Semantics.CONT     => PatternG
  }
}
