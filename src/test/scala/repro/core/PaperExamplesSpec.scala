package repro.core

import org.scalatest.funsuite.AnyFunSuite
import Pattern._

/** The paper's worked examples, transcribed verbatim: the Figure 2 stream
  * evaluated by (SEQ(A+,B))+ with the exact intermediate and final counts of
  * Tables 5 (type-grained), 6 (mixed-grained), and 7 (pattern-grained).
  */
class PaperExamplesSpec extends AnyFunSuite {

  private val P = plus(seq(plus(tp("A")), tp("B")))

  /** Figure 2 stream: a1 b2 a3 a4 c5 b6 a7 b8 (values chosen for Table 6's
    * predicate scenario: a7 adjacent to b2 but not to b6). */
  private def fig2: IndexedSeq[Ev] = Vector(
    Ev(1, "A", 5.0), Ev(2, "B", 1.0), Ev(3, "A", 5.0), Ev(4, "A", 5.0),
    Ev(5, "C", 0.0), Ev(6, "B", 10.0), Ev(7, "A", 5.0), Ev(8, "B", 10.0))

  test("Table 5: type-grained trend counts per event (A.count / B.count columns)") {
    val q = TrendQuery(P, Semantics.ANY)
    val agg = new TypeGrained(q)
    // expected (A.count, B.count) after each event; None = unchanged slot
    val expected = Seq(
      (1.0, 0.0),   // a1
      (1.0, 1.0),   // b2
      (4.0, 1.0),   // a3
      (10.0, 1.0),  // a4
      (10.0, 1.0),  // c5 (irrelevant, ignored)
      (10.0, 11.0), // b6
      (32.0, 11.0), // a7
      (32.0, 43.0)) // b8
    fig2.zip(expected).foreach { case (e, (ac, bc)) =>
      agg.onEvent(e)
      val s = agg.snapshot.typeAggs
      assert(s("A").count == ac, s"A.count after ${e.etype}${e.time}")
      assert(s("B").count == bc, s"B.count after ${e.etype}${e.time}")
    }
    assert(agg.result.count == 43.0) // 43 trends, as in Figure 2 / Example 5
  }

  test("Table 6: mixed-grained counts — type-grained A, event-grained b's") {
    // predicates restrict the adjacency between b's and a's: (B.v < A.v)
    // with the values above, a's are adjacent to b2 (1<5) but not b6 (10>5)
    val q = TrendQuery(P, Semantics.ANY, Seq(AdjPred.Cmp("B", "A", "<")))
    val agg = new MixedGrained(q)
    assert(agg.eventGrained == Set("B")) // b's must be stored (Example 6)
    assert(agg.typeGrained == Set("A"))
    val expectedA = Seq(1.0, 1.0, 4.0, 10.0, 10.0, 10.0, 22.0, 22.0)
    val expectedFinal = Seq(0.0, 1.0, 1.0, 1.0, 1.0, 11.0, 11.0, 33.0)
    fig2.zip(expectedA.zip(expectedFinal)).foreach { case (e, (ac, fc)) =>
      agg.onEvent(e)
      assert(agg.snapshot.typeAggs("A").count == ac, s"A.count after ${e.etype}${e.time}")
      assert(agg.result.count == fc, s"final_count after ${e.etype}${e.time}")
    }
    assert(agg.result.count == 33.0) // Table 6 final count
  }

  test("Table 7 (bold): pattern-grained counts under skip-till-next-match") {
    val q = TrendQuery(P, Semantics.NEXT)
    val agg = new PatternGrained(q)
    // expected (e_l.count, final_count) after each event
    val expected = Seq(
      (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0),
      (3.0, 1.0),          // c5 skipped under NEXT, tip unchanged
      (3.0, 4.0), (4.0, 4.0), (4.0, 8.0))
    fig2.zip(expected).foreach { case (e, (lc, fc)) =>
      agg.onEvent(e)
      val s = agg.snapshot
      assert(s.tip.fold(0.0)(_.agg.count) == lc, s"e_l.count after ${e.etype}${e.time}")
      assert(s.finalAgg.count == fc, s"final_count after ${e.etype}${e.time}")
    }
    assert(agg.result.count == 8.0) // eight trends (Example 7 / Figure 2)
  }

  test("Table 7 (italics): pattern-grained counts under contiguous semantics") {
    val q = TrendQuery(P, Semantics.CONT)
    val agg = new PatternGrained(q)
    val expected = Seq(
      (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0),
      (0.0, 1.0),          // c5 invalidates partial trends: e_l reset
      (0.0, 1.0),          // b6 cannot be matched (tip is null)
      (1.0, 1.0), (1.0, 2.0))
    fig2.zip(expected).foreach { case (e, (lc, fc)) =>
      agg.onEvent(e)
      val s = agg.snapshot
      assert(s.tip.fold(0.0)(_.agg.count) == lc, s"e_l.count after ${e.etype}${e.time}")
      assert(s.finalAgg.count == fc, s"final_count after ${e.etype}${e.time}")
    }
    assert(agg.result.count == 2.0) // two contiguous trends (Example 4)
  }

  test("Example 5 arithmetic: a7.count = A.count + B.count + 1 = 22") {
    val q = TrendQuery(P, Semantics.ANY)
    val agg = new TypeGrained(q)
    fig2.take(6).foreach(agg.onEvent) // through b6
    val before = agg.snapshot.typeAggs
    assert(before("A").count == 10.0 && before("B").count == 11.0)
    agg.onEvent(fig2(6)) // a7
    assert(agg.snapshot.typeAggs("A").count == 32.0) // 10 + (10+11+1)
  }

  test("granularity selection (Table 4) for the three example queries") {
    import Granularity._
    assert(Granularity.select(TrendQuery(P, Semantics.ANY)) == TypeG)
    assert(Granularity.select(
      TrendQuery(P, Semantics.ANY, Seq(AdjPred.Cmp("B", "A", "<")))) == MixedG)
    assert(Granularity.select(TrendQuery(P, Semantics.NEXT)) == PatternG)
    assert(Granularity.select(TrendQuery(P, Semantics.CONT)) == PatternG)
    // predicates never change NEXT/CONT granularity (Table 4 spans both columns)
    assert(Granularity.select(
      TrendQuery(P, Semantics.CONT, Seq(AdjPred.Cmp("A", "A", "<")))) == PatternG)
  }
}
