package repro.trendbench

import repro.bench.Experiments
import repro.core._
import repro.core.Pattern._

/** The benchmark's queries, after the paper's q1–q3 (see `repro.bench.Experiments`). */
object Queries {
  /** q3: SEQ(A+, B) under skip-till-any-match, target B: type granularity. */
  def q3(win: WindowSpec): TrendQuery = Experiments.q3(win)

  /** q3 with A.value < NEXT(A).value: mixed granularity. */
  def q3Mixed(win: WindowSpec): TrendQuery = Experiments.q3(win, Seq(AdjPred.Cmp("A", "A", "<")))

  /** q2: (SEQ(A+, B))+ under skip-till-next-match, here with target B:
    * pattern granularity. */
  def q2(win: WindowSpec): TrendQuery = Experiments.q2(win).copy(targetType = Some("B"))

  /** q1-style: A+ under contiguous semantics with A.value < NEXT(A).value
    * (the paper's q1 is over type M): pattern granularity; B and C events
    * break contiguity. */
  def q1(win: WindowSpec): TrendQuery =
    TrendQuery(plus(tp("A")), Semantics.CONT, Seq(AdjPred.Cmp("A", "A", "<")), Some("A"), win)

  /** The hot-path query set with the granularity each one runs at. */
  def hot(win: WindowSpec): Seq[TrendQuery] = Seq(q3(win), q3Mixed(win), q2(win), q1(win))
}
