package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{Budget, BruteForce, Sase}
import repro.core.Pattern._
import scala.util.Random

/** The primary correctness gate: on hundreds of random small streams,
  * Cogra's incremental aggregates must equal aggregates computed from
  * explicitly constructed trends —
  *  - under ANY: the declarative Definition 2 enumeration (BruteForce);
  *  - under NEXT/CONT: the single-tip two-step construction (Sase), the
  *    operational semantics of the paper's Algorithm 3 ("same result as the
  *    two-step approach", §1 Challenges);
  *  - under CONT additionally the declarative Definition 4 enumeration.
  * All aggregation functions are compared (COUNT(*), COUNT(E), SUM, MIN, MAX).
  */
class DifferentialSpec extends AnyFunSuite {

  private val patterns: Seq[(String, Pattern)] = Seq(
    "A+"              -> plus(tp("A")),
    "SEQ(A+,B)"       -> seq(plus(tp("A")), tp("B")),
    "SEQ(A+,B+)"      -> seq(plus(tp("A")), plus(tp("B"))),
    "(SEQ(A+,B))+"    -> plus(seq(plus(tp("A")), tp("B"))),
    "SEQ(A,SEQ(B+,C))" -> seq(tp("A"), seq(plus(tp("B")), tp("C"))))

  private def randomStream(n: Int, seed: Int): Vector[Ev] = {
    val r = new Random(seed)
    val types = Seq("A", "A", "A", "B", "B", "C", "X") // X is never in a pattern
    Vector.tabulate(n)(i =>
      Ev(i + 1L, i + 1L, types(r.nextInt(types.size)), "g", r.nextInt(10).toDouble))
  }

  /** A stream whose values tell the mixed granularity's value index from
    * IEEE comparison: repeats, -0.0 next to 0.0, and NaN after values are
    * stored, but not on type `target` (a NaN target value makes SUM, MIN
    * and MAX NaN, which no equality can compare). */
  private def edgeStream(n: Int, seed: Int, target: String): Vector[Ev] = {
    val r = new Random(seed)
    val types = Seq("A", "A", "A", "B", "B", "C", "X")
    val values = Seq(1.0, -0.0, 2.0, 0.0, Double.NaN, 1.0, -0.0, Double.NaN, 0.0)
    Vector.tabulate(n) { i =>
      val t = types(r.nextInt(types.size))
      val v = values(i % values.size)
      Ev(i + 1L, i + 1L, t, "g", if (v.isNaN && t == target) 2.0 else v)
    }
  }

  /** Predicate sets of the mixed-grained differential: first the original
    * one on two T_e types, then each comparison and a conjunction on (A, A),
    * whose adjacent predecessors the value index finds as value ranges. */
  private val mixedPreds: Seq[(String, Seq[AdjPred])] =
    ("" -> Seq(AdjPred.Cmp("A", "A", "<"), AdjPred.Cmp("B", "A", "<"))) +:
      Seq("<", "<=", ">", ">=", "=", "!=").map(op => s" A${op}A" -> Seq(AdjPred.Cmp("A", "A", op))) :+
      (" A>=A,A!=A" -> Seq(AdjPred.Cmp("A", "A", ">="), AdjPred.Cmp("A", "A", "!=")))

  private def assertAggEq(got: Agg, want: Agg, hint: String): Unit = {
    assert(got.count == want.count, s"$hint count")
    assert(got.countE == want.countE, s"$hint countE")
    assert(math.abs(got.sum - want.sum) < 1e-6, s"$hint sum: ${got.sum} vs ${want.sum}")
    assert(got.min == want.min, s"$hint min")
    assert(got.max == want.max, s"$hint max")
  }

  private val budget = Budget()

  for ((pName, p) <- patterns; seed <- 1 to 12) {
    val evs = randomStream(11, seed)
    val target = Some("A")

    test(s"ANY no-predicates: type-grained == declarative [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.ANY, Nil, target)
      assert(Granularity.select(q) == Granularity.TypeG)
      assertAggEq(Cogra.run(evs, q), BruteForce.evaluate(evs, q), s"$pName/$seed")
    }

    for ((sName, preds) <- mixedPreds)
      test(s"ANY with predicates: mixed-grained == declarative [$pName seed=$seed$sName]") {
        val q = TrendQuery(p, Semantics.ANY, preds, target)
        assert(Granularity.select(q) == Granularity.MixedG)
        assertAggEq(Cogra.run(evs, q), BruteForce.evaluate(evs, q), s"$pName/$seed")
      }

    test(s"NEXT: pattern-grained == two-step construction [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.NEXT, Nil, target)
      assertAggEq(Cogra.run(evs, q), Sase.run(evs, q, budget).agg, s"$pName/$seed")
    }

    test(s"NEXT with predicates: pattern-grained == two-step [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.NEXT, Seq(AdjPred.Cmp("A", "A", "<")), target)
      assertAggEq(Cogra.run(evs, q), Sase.run(evs, q, budget).agg, s"$pName/$seed")
    }

    test(s"CONT: pattern-grained == two-step == declarative [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.CONT, Nil, target)
      val got = Cogra.run(evs, q)
      assertAggEq(got, Sase.run(evs, q, budget).agg, s"$pName/$seed two-step")
      assertAggEq(got, BruteForce.evaluate(evs, q), s"$pName/$seed declarative")
    }

    test(s"CONT with predicates: pattern-grained == two-step == declarative [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.CONT, Seq(AdjPred.Cmp("A", "A", "<")), target)
      val got = Cogra.run(evs, q)
      assertAggEq(got, Sase.run(evs, q, budget).agg, s"$pName/$seed two-step")
      assertAggEq(got, BruteForce.evaluate(evs, q), s"$pName/$seed declarative")
    }
  }

  // one edge-valued stream per predicate set, aggregating the end type
  for ((pName, p) <- patterns; (sName, preds) <- mixedPreds)
    test(s"ANY with predicates: mixed-grained == declarative [$pName edge values$sName]") {
      val q = TrendQuery(p, Semantics.ANY, preds, Some(p.types.last))
      val evs = edgeStream(16, 1, q.target)
      assert(Granularity.select(q) == Granularity.MixedG)
      assertAggEq(Cogra.run(evs, q), BruteForce.evaluate(evs, q), s"$pName/edge")
    }

  // NEXT vs the declarative Definition 3 on workloads where Algorithm 3's
  // single-tip discipline provably coincides (see DESIGN.md fidelity note)
  for (seed <- 1 to 12)
    test(s"NEXT A+ (single-type): pattern-grained == declarative [seed=$seed]") {
      val q = TrendQuery(plus(tp("A")), Semantics.NEXT, Nil, Some("A"))
      val evs = randomStream(11, seed)
      assertAggEq(Cogra.run(evs, q), BruteForce.evaluate(evs, q), s"A+/$seed")
    }

  test("NEXT divergence (documented): Algorithm 3 misses interleaved-start trends") {
    // SEQ(A, SEQ(B, C)) over a1 b2 a3 c4: declaratively (a1,b2,c4) is a NEXT
    // trend, but the single-tip algorithm replaces the tip b2 with the new
    // start a3 and reports 0 — the paper's Theorem 6.1 assumption at work.
    val p = seq(tp("A"), seq(tp("B"), tp("C")))
    val q = TrendQuery(p, Semantics.NEXT)
    val evs = Vector(Ev(1, "A"), Ev(2, "B"), Ev(3, "A"), Ev(4, "C"))
    assert(BruteForce.evaluate(evs, q).count == 1.0)
    assert(Cogra.run(evs, q).count == 0.0)
    // the two-step baseline follows the same operational semantics
    assert(Sase.run(evs, q, budget).agg.count == 0.0)
  }

  // snapshot/restore round-trips (the streaming driver's state contract)
  // (seed 0 is an edge-valued stream; "ANY/mixed" is the A<A set)
  for ((pName, p) <- patterns.take(4); seed <- 0 to 4;
       (semName, sem, preds) <- Seq(
         ("ANY/type", Semantics.ANY, Nil),
         ("ANY/mixed", Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<"))),
         ("NEXT/pattern", Semantics.NEXT, Nil),
         ("CONT/pattern", Semantics.CONT, Nil)) ++
         mixedPreds.drop(2).map { case (sName, preds) => (s"ANY/mixed$sName", Semantics.ANY, preds) } :+
         (("ANY/mixed A<A,B<A", Semantics.ANY, mixedPreds.head._2)))
    test(s"snapshot/restore mid-stream == single run [$pName $semName seed=$seed]") {
      val q = TrendQuery(p, sem, preds, Some("A"))
      val evs = if (seed == 0) edgeStream(12, 0, "A") else randomStream(12, seed)
      val (h1, h2) = evs.splitAt(6)
      val a1 = Cogra.aggregator(q)
      h1.foreach(a1.onEvent)
      val a2 = a1 match {
        case a: TypeGrained    => new TypeGrained(q, Some(a.snapshot))
        case a: MixedGrained   => new MixedGrained(q, Some(a.snapshot))
        case a: PatternGrained => new PatternGrained(q, Some(a.snapshot))
      }
      h2.foreach(a2.onEvent)
      assertAggEq(a2.result, Cogra.run(evs, q), s"$pName/$semName/$seed")
    }
}
