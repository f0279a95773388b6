package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pattern._
import scala.util.Random

/** Aggregator internals: space complexity claims (Theorems 4.2/5.2/6.3),
  * predicate classification (Theorem 5.1), and edge cases. */
class AggregatorSpec extends AnyFunSuite {

  private val P = plus(seq(plus(tp("A")), tp("B")))

  test("type-grained space is Θ(l) regardless of stream length (Theorem 4.2)") {
    val q = TrendQuery(P, Semantics.ANY)
    val agg = new TypeGrained(q)
    val r = new Random(1)
    (1 to 5000).foreach(i => agg.onEvent(Ev(i.toLong, i.toLong,
      if (r.nextBoolean()) "A" else "B", "g", 1.0)))
    assert(agg.peakUnits == 2) // one aggregate per type in the pattern
  }

  test("pattern-grained space is O(1) (Theorem 6.3)") {
    val q = TrendQuery(P, Semantics.NEXT)
    val agg = new PatternGrained(q)
    (1 to 5000).foreach(i => agg.onEvent(Ev(i.toLong, i.toLong,
      if (i % 3 == 0) "B" else "A", "g", 1.0)))
    assert(agg.peakUnits == 2) // final aggregate + last matched event
  }

  test("mixed-grained space is Θ(t + n_e): only restricted-type events stored (Theorem 5.2)") {
    val q = TrendQuery(P, Semantics.ANY, Seq(AdjPred.Cmp("B", "A", "<")))
    val agg = new MixedGrained(q)
    var bCount = 0
    (1 to 200).foreach { i =>
      val t = if (i % 4 == 0) "B" else "A"
      if (t == "B") bCount += 1
      agg.onEvent(Ev(i.toLong, i.toLong, t, "g", i.toDouble))
    }
    // |T_t| + stored b's + running final = 1 + n_B + 1
    assert(agg.peakUnits == 1 + bCount + 1)
  }

  test("classifier: no predicates -> all types type-grained") {
    val q = TrendQuery(P, Semantics.ANY)
    val agg = new MixedGrained(q)
    assert(agg.eventGrained.isEmpty && agg.typeGrained == Set("A", "B"))
  }

  test("classifier: predicate on (A,A) adjacency makes A event-grained") {
    val q = TrendQuery(P, Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<")))
    val agg = new MixedGrained(q)
    assert(agg.eventGrained == Set("A") && agg.typeGrained == Set("B"))
  }

  test("classifier: predicate whose prev type never precedes the next type is ignored") {
    // SEQ(A+,B): B is not a predecessor of A, so a (B,A) predicate cannot
    // restrict any adjacency (Theorem 5.1's E ∈ predTypes(E_x) condition)
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY,
      Seq(AdjPred.Cmp("B", "A", "<")))
    val agg = new MixedGrained(q)
    assert(agg.eventGrained.isEmpty)
  }

  test("classifier extreme: predicates on every adjacency -> fully event-grained (GRETA case)") {
    val q = TrendQuery(P, Semantics.ANY,
      Seq(AdjPred.Cmp("A", "A", "<"), AdjPred.Cmp("B", "A", "<"), AdjPred.Cmp("A", "B", "<")))
    val agg = new MixedGrained(q)
    assert(agg.typeGrained.isEmpty)
  }

  test("mixed-grained with no predicates degenerates to type-grained results") {
    val r = new Random(3)
    val evs = Vector.tabulate(60)(i => Ev(i + 1L, i + 1L,
      if (r.nextBoolean()) "A" else "B", "g", r.nextInt(10).toDouble))
    val qt = TrendQuery(P, Semantics.ANY)
    val tg = new TypeGrained(qt); val mg = new MixedGrained(qt)
    evs.foreach(tg.onEvent); evs.foreach(mg.onEvent)
    assert(tg.result == mg.result)
  }

  test("irrelevant event types are skipped under ANY (type + mixed)") {
    val q = TrendQuery(P, Semantics.ANY)
    val agg = new TypeGrained(q)
    Seq(Ev(1, "A"), Ev(2, "Z"), Ev(3, "B")).foreach(agg.onEvent)
    assert(agg.result.count == 1.0)
  }

  test("pattern-grained rejects ANY queries (Table 4)") {
    assertThrows[IllegalArgumentException] {
      new PatternGrained(TrendQuery(P, Semantics.ANY))
    }
  }

  test("an unknown comparison operator is rejected when the predicate is built") {
    assertThrows[IllegalArgumentException](AdjPred.Cmp("A", "A", "<>"))
  }

  test("comparison masks and their conjunctions evaluate like IEEE comparison") {
    val ops: Map[String, (Double, Double) => Boolean] = Map(
      "<" -> (_ < _), "<=" -> (_ <= _), ">" -> (_ > _), ">=" -> (_ >= _),
      "=" -> (_ == _), "!=" -> (_ != _))
    val vs = Seq(Double.NegativeInfinity, -1.0, -0.0, 0.0, 1.0, Double.PositiveInfinity, Double.NaN)
    for ((o1, f1) <- ops; (o2, f2) <- ops; a <- vs; b <- vs) {
      val c1 = AdjPred.Cmp("A", "A", o1)
      assert(c1.test(a, b) == f1(a, b), s"$a $o1 $b")
      assert(AdjPred.Cmp.test(c1.mask & AdjPred.Cmp("A", "A", o2).mask, a, b) == (f1(a, b) && f2(a, b)),
        s"$a $o1 $b and $a $o2 $b")
    }
  }

  test("type names are matched by value, not by reference, at every granularity") {
    val r = new Random(5)
    val evs = Vector.tabulate(60)(i => Ev(i + 1L, i + 1L,
      Seq("A", "A", "B", "Z")(r.nextInt(4)), "g", r.nextInt(6).toDouble))
    // as Spark deserializes them: equal, but not the interned literals
    val copies = evs.map(e => e.copy(etype = new String(e.etype)))
    assert(!(copies.head.etype eq evs.head.etype))
    val lt = Seq(AdjPred.Cmp("A", "A", "<"))
    for ((q, g) <- Seq(
           TrendQuery(P, Semantics.ANY) -> Granularity.TypeG,
           TrendQuery(P, Semantics.ANY, lt) -> Granularity.MixedG,
           TrendQuery(P, Semantics.ANY, lt :+ AdjPred.Sel("B", "A", 0.5)) -> Granularity.MixedG,
           TrendQuery(P, Semantics.NEXT, lt) -> Granularity.PatternG,
           TrendQuery(P, Semantics.CONT) -> Granularity.PatternG)) {
      assert(Granularity.select(q) == g)
      val want = Cogra.run(evs, q)
      assert(want.count > 0, s"$g")
      assert(Cogra.run(copies, q) == want, s"$g")
    }
  }

  test("every granularity takes events in the order it is fed") {
    // neither sorted by (time, sid) nor free of repeated pairs: every
    // earlier event in the sequence is a candidate predecessor, as in the
    // declarative definition
    val evs = Vector(Ev(1, 1, "A", "g", 1.0), Ev(2, 2, "A", "g", 2.0), Ev(2, 2, "A", "g", 3.0),
                     Ev(1, 0, "A", "g", 0.0), Ev(3, 3, "A", "g", 5.0), Ev(3, 3, "A", "g", 4.0))
    for (preds <- Seq(Nil, Seq(AdjPred.Cmp("A", "A", "<=")), Seq(AdjPred.Sel("A", "A", 0.5)))) {
      val q = TrendQuery(plus(tp("A")), Semantics.ANY, preds, Some("A"))
      val want = repro.baselines.BruteForce.evaluate(evs, q)
      assert(Cogra.run(evs, q) == want, s"Cogra, $preds")
      assert(repro.baselines.Greta.run(evs, q, repro.baselines.Budget()).agg == want, s"GRETA, $preds")
    }
  }

  test("empty stream yields zero aggregates at every granularity") {
    assert(new TypeGrained(TrendQuery(P, Semantics.ANY)).result == Agg.zero)
    assert(new MixedGrained(TrendQuery(P, Semantics.ANY,
      Seq(AdjPred.Cmp("A", "A", "<")))).result == Agg.zero)
    assert(new PatternGrained(TrendQuery(P, Semantics.CONT)).result == Agg.zero)
  }

  test("single end-type event with no start is not a trend") {
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY)
    val agg = new TypeGrained(q)
    agg.onEvent(Ev(1, "B"))
    assert(agg.result.count == 0.0)
  }

  test("single start-type event of a one-type pattern is a trend (induction basis)") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Nil, Some("A"))
    val agg = new TypeGrained(q)
    agg.onEvent(Ev(1, "A", 7.0))
    assert(agg.result == Agg(1, 1, 7.0, 7.0, 7.0))
  }

  test("target type other than the end type aggregates correctly (Table 8 E≠end)") {
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("A"))
    val agg = new TypeGrained(q)
    Seq(Ev(1, "A", 2.0), Ev(2, "A", 4.0), Ev(3, "B", 100.0)).foreach(agg.onEvent)
    // trends: (a1,b) (a2,b) (a1,a2,b): countE=4, sum=2+4+6=12, min=2, max=4
    assert(agg.result == Agg(3, 4, 12.0, 2.0, 4.0))
  }

  test("CONT reset also clears the aggregate bundle, not just the count") {
    val q = TrendQuery(plus(tp("M")), Semantics.CONT, Nil, Some("M"))
    val agg = new PatternGrained(q)
    Seq(Ev(1, "M", 5.0), Ev(2, "Z", 0.0), Ev(3, "M", 9.0)).foreach(agg.onEvent)
    // trends: (m1) before the break, (m3) after; never (m1,m3)
    assert(agg.result == Agg(2, 2, 14.0, 5.0, 9.0))
  }
}
