package repro.core

/** A matched event retained in a snapshot, as its algorithm reads it: its
  * type and value, which adjacent-event predicates test, and its
  * event-grained aggregate. It has no time or sid: a stored event is earlier
  * than every event that comes after it in the substream. */
final case class StoredEv(etype: String, value: Double, agg: Agg) extends Serializable

/** Serializable snapshot of a Cogra aggregator's state: one open window
  * inside a group's state row ([[CograState]]), which `CograStream` persists
  * between micro-batches. Each granularity has its own state type holding
  * exactly what it reads. */
sealed trait AggState extends Serializable

/** Type-grained state (Algorithm 1): one aggregate per event type. */
final case class TypeState(typeAggs: Map[String, Agg]) extends AggState

/** Mixed-grained state (Algorithm 2): aggregates of the T_t types, the
  * stored T_e events, and the final aggregate. */
final case class MixedState(typeAggs: Map[String, Agg], events: Seq[StoredEv], finalAgg: Agg)
    extends AggState

/** Pattern-grained state (Algorithm 3): the last matched event with its
  * aggregate, if any, and the final aggregate. */
final case class PatternState(tip: Option[StoredEv], finalAgg: Agg) extends AggState
