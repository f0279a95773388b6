package repro.core

/** Kleene pattern AST (paper Definition 1).
  *
  * A pattern is an event type, a Kleene plus `P+`, or a sequence
  * `SEQ(P1, P2)`. Each event type may appear at most once (paper §2.1).
  */
sealed trait Pattern extends Serializable {
  /** Event types in left-to-right order. */
  def types: Vector[String] = this match {
    case Pattern.Tp(n)     => Vector(n)
    case Pattern.Plus(p)   => p.types
    case Pattern.Sq(l, r)  => l.types ++ r.types
  }
  /** Pattern length = number of event types (Definition 1). */
  def length: Int = types.size
  def render: String = this match {
    case Pattern.Tp(n)    => n
    case Pattern.Plus(p)  => s"(${p.render})+"
    case Pattern.Sq(l, r) => s"SEQ(${l.render}, ${r.render})"
  }
}

object Pattern {
  /** A single event type. */
  final case class Tp(name: String) extends Pattern
  /** Kleene plus `P+`. */
  final case class Plus(p: Pattern) extends Pattern
  /** Event sequence `SEQ(P1, P2)`. */
  final case class Sq(l: Pattern, r: Pattern) extends Pattern

  /** Convenience constructors for tests and benchmarks. */
  def tp(n: String): Pattern = Tp(n)
  def plus(p: Pattern): Pattern = Plus(p)
  def seq(ps: Pattern*): Pattern = ps.reduceLeft(Sq(_, _))
}

/** FSA-based pattern analysis (paper §3.1, Figure 4).
  *
  * Glushkov construction over the type alphabet: since each type occurs at
  * most once and the grammar has no empty-matching operators, `first(P)` and
  * `last(P)` are singletons — the paper's unique start and end types — and
  * the follow relation yields `predTypes`.
  */
final case class PatternInfo(
    types: Vector[String],
    start: String,
    end: String,
    predTypes: Map[String, Set[String]]) extends Serializable {

  def isStart(t: String): Boolean = t == start
  def isEnd(t: String): Boolean = t == end
  def contains(t: String): Boolean = typeSet(t)
  val typeSet: Set[String] = types.toSet
  def preds(t: String): Set[String] = predTypes.getOrElse(t, Set.empty)
}

object PatternAnalyzer {
  def analyze(p: Pattern): PatternInfo = {
    val ts = p.types
    require(ts.distinct == ts, s"each event type may appear at most once in a pattern: ${p.render}")
    val (first, last, follow) = glushkov(p)
    require(first.size == 1 && last.size == 1,
      s"pattern must have exactly one start and one end type: ${p.render}")
    val pred = follow.groupMap(_._2)(_._1).map { case (k, v) => k -> v.toSet }
    PatternInfo(ts, first.head, last.head, pred.withDefaultValue(Set.empty))
  }

  /** Returns (first, last, follow-pairs) of the pattern. */
  private def glushkov(p: Pattern): (Set[String], Set[String], Set[(String, String)]) = p match {
    case Pattern.Tp(n) => (Set(n), Set(n), Set.empty)
    case Pattern.Sq(l, r) =>
      val (f1, l1, fo1) = glushkov(l)
      val (f2, l2, fo2) = glushkov(r)
      (f1, l2, fo1 ++ fo2 ++ (for (a <- l1; b <- f2) yield (a, b)))
    case Pattern.Plus(q) =>
      val (f, l, fo) = glushkov(q)
      (f, l, fo ++ (for (a <- l; b <- f) yield (a, b)))
  }
}
