package repro.core

/** Event matching semantics (paper §2.2). */
sealed trait Semantics extends Serializable

object Semantics {
  /** Skip-till-any-match: every relevant event may extend or be skipped;
    * all possible trends are detected (Definition 2). */
  case object ANY extends Semantics
  /** Skip-till-next-match: relevant events must be matched, irrelevant
    * events are skipped (Definition 3). */
  case object NEXT extends Semantics
  /** Contiguous: no events are skipped (Definition 4). */
  case object CONT extends Semantics
}
