package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.Pattern._
import scala.util.Random

/** The four reimplemented state-of-the-art engines (§9.1) against the
  * declarative reference, plus budget (DNF) behavior and the Table 9
  * expressive-power matrix.
  */
class EnginesSpec extends AnyFunSuite {

  private val budget = Budget()
  private def randomStream(n: Int, seed: Int): Vector[Ev] = {
    val r = new Random(seed)
    val types = Seq("A", "A", "A", "B", "B", "C", "X")
    Vector.tabulate(n)(i =>
      Ev(i + 1L, i + 1L, types(r.nextInt(types.size)), "g", r.nextInt(10).toDouble))
  }

  private def assertAggEq(got: Agg, want: Agg, hint: String): Unit = {
    assert(got.count == want.count, s"$hint count")
    assert(got.countE == want.countE, s"$hint countE")
    assert(math.abs(got.sum - want.sum) < 1e-6, s"$hint sum")
    assert(got.min == want.min, s"$hint min")
    assert(got.max == want.max, s"$hint max")
  }

  /** Flink's and SASE's constructions, with and without an adjacency
    * predicate (Fig. 9 runs Flink under ANY with one, Fig. 5 under CONT). */
  private val adjPredInputs: Seq[Seq[AdjPred]] = Seq(Nil, Seq(AdjPred.Cmp("A", "A", "<")))

  private val patterns: Seq[(String, Pattern)] = Seq(
    "A+"           -> plus(tp("A")),
    "SEQ(A+,B)"    -> seq(plus(tp("A")), tp("B")),
    "(SEQ(A+,B))+" -> plus(seq(plus(tp("A")), tp("B"))))

  for ((pName, p) <- patterns; seed <- 1 to 8) {
    val evs = randomStream(10, seed)

    test(s"SASE (two-step) == declarative under ANY [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.ANY, Nil, Some("A"))
      val r = Sase.run(evs, q, budget)
      assert(!r.dnf)
      assertAggEq(r.agg, BruteForce.evaluate(evs, q), s"$pName/$seed")
      assert(r.trends == BruteForce.anyTrends(evs, q).size)
    }

    test(s"SASE == declarative under ANY with predicates [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<")), Some("A"))
      val r = Sase.run(evs, q, budget)
      assertAggEq(r.agg, BruteForce.evaluate(evs, q), s"$pName/$seed")
      assert(r.trends == BruteForce.anyTrends(evs, q).size)
    }

    test(s"Flink (two-step, stores trends) == declarative under ANY [$pName seed=$seed]") {
      for (preds <- adjPredInputs) {
        val q = TrendQuery(p, Semantics.ANY, preds, Some("A"))
        val r = FlinkLike.run(evs, q, budget)
        val trends = BruteForce.anyTrends(evs, q)
        assert(!r.dnf)
        assertAggEq(r.agg, BruteForce.evaluate(evs, q), s"$pName/$seed/$preds")
        assert(r.trends == trends.size)
        // Flink's memory proxy counts every stored trend element
        assert(r.peakUnits >= trends.map(_.size.toLong).sum)
      }
    }

    test(s"Flink == declarative under CONT [$pName seed=$seed]") {
      for (preds <- adjPredInputs) {
        val q = TrendQuery(p, Semantics.CONT, preds, Some("A"))
        val r = FlinkLike.run(evs, q, budget)
        val trends = BruteForce.contTrends(evs, q).size
        assert(!r.dnf)
        assertAggEq(r.agg, BruteForce.evaluate(evs, q), s"$pName/$seed/$preds")
        assert(r.trends == trends)
        assert(Sase.run(evs, q, budget).trends == trends)
      }
    }

    test(s"A-Seq (flattened prefix counters) == declarative under ANY [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.ANY, Nil, Some("A"))
      val r = ASeq.run(evs, q, budget)
      assertAggEq(r.agg, BruteForce.evaluate(evs, q), s"$pName/$seed")
    }

    test(s"GRETA (event-grained online) == declarative under ANY w/ preds [$pName seed=$seed]") {
      val q = TrendQuery(p, Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<")), Some("A"))
      val r = Greta.run(evs, q, budget)
      assertAggEq(r.agg, BruteForce.evaluate(evs, q), s"$pName/$seed")
    }
  }

  test("SASE under NEXT/CONT constructs exactly the trends Algorithm 3 counts (Figure 2)") {
    val p = plus(seq(plus(tp("A")), tp("B")))
    val fig2 = Vector(Ev(1, "A"), Ev(2, "B"), Ev(3, "A"), Ev(4, "A"),
      Ev(5, "C"), Ev(6, "B"), Ev(7, "A"), Ev(8, "B"))
    assert(Sase.run(fig2, TrendQuery(p, Semantics.NEXT), budget).trends == 8)
    assert(Sase.run(fig2, TrendQuery(p, Semantics.CONT), budget).trends == 2)
  }

  test("two-step engines DNF when the trend budget is exhausted") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY)
    val evs = Vector.tabulate(24)(i => Ev(i + 1L, "A")) // 2^24-1 trends
    val tiny = Budget(maxWork = 10_000)
    assert(Sase.run(evs, q, tiny).dnf)
    assert(FlinkLike.run(evs, q, tiny).dnf)
    // online engines are unaffected by the same budget
    assert(!ASeq.run(evs, q, tiny).dnf)
    assert(!Greta.run(evs, q, tiny).dnf)
    assert(!Engines.CograEngine.run(evs, q, tiny).dnf)
  }

  test("a cap equal to a run's own work finishes, and one less DNFs") {
    val p = seq(plus(tp("A")), tp("B"))
    val evs = randomStream(16, 7)
    val runs = Seq(
      "Flink ANY" -> ((b: Budget) => FlinkLike.run(evs, TrendQuery(p, Semantics.ANY), b)),
      "Flink CONT" -> ((b: Budget) => FlinkLike.run(evs, TrendQuery(p, Semantics.CONT), b)),
      "SASE ANY" -> ((b: Budget) => Sase.run(evs, TrendQuery(p, Semantics.ANY), b)),
      "SASE NEXT" -> ((b: Budget) => Sase.run(evs, TrendQuery(p, Semantics.NEXT), b)),
      "GRETA" -> ((b: Budget) => Greta.run(evs, TrendQuery(p, Semantics.ANY), b)),
      "A-Seq" -> ((b: Budget) => ASeq.run(evs, TrendQuery(p, Semantics.ANY), b)))
    for ((name, run) <- runs) {
      val free = run(budget)
      assert(!free.dnf && free.work > 0, name)
      assert(run(Budget(free.work)) == free, name)
      assert(run(Budget(free.work - 1)).dnf, name)
    }
  }

  test("online engines agree with Cogra on large-ish exponential counts") {
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"))
    val r = new Random(42)
    val evs = Vector.tabulate(40)(i =>
      Ev(i + 1L, i + 1L, if (r.nextDouble() < 0.75) "A" else "B", "g", r.nextInt(10).toDouble))
    val cogra = Engines.CograEngine.run(evs, q, budget).agg
    assertAggEq(ASeq.run(evs, q, budget).agg, cogra, "aseq-vs-cogra")
    assertAggEq(Greta.run(evs, q, budget).agg, cogra, "greta-vs-cogra")
  }

  test("memory-proxy ordering at a fixed workload: Cogra < A-Seq/GRETA < Flink") {
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("B"))
    val evs = randomStream(20, 99)
    val cogra = Engines.CograEngine.run(evs, q, budget)
    val aseq = ASeq.run(evs, q, budget)
    val greta = Greta.run(evs, q, budget)
    val flink = FlinkLike.run(evs, q, budget)
    assert(cogra.peakUnits <= aseq.peakUnits)
    assert(cogra.peakUnits <= greta.peakUnits)
    assert(greta.peakUnits < flink.peakUnits)
  }

  test("Table 9: expressive power matrix") {
    import repro.bench.Experiments
    val m = Experiments.table9.map(r => r.engine ->
      (r.kleene, r.any, r.next, r.cont, r.adjPreds, r.online)).toMap
    assert(m("Flink") == (false, true, false, true, true, false))
    assert(m("SASE")  == (true,  true, true,  true, true, false))
    assert(m("GRETA") == (true,  true, false, false, true, true))
    assert(m("A-Seq") == (false, true, false, false, false, true))
    assert(m("Cogra") == (true,  true, true,  true, true, true))
  }

  test("supports() gates engines exactly as Table 9 prescribes") {
    val p = seq(plus(tp("A")), tp("B"))
    val qNext = TrendQuery(p, Semantics.NEXT)
    val qPreds = TrendQuery(p, Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<")))
    assert(!FlinkLike.supports(qNext) && Sase.supports(qNext) && Engines.CograEngine.supports(qNext))
    assert(!ASeq.supports(qPreds) && Greta.supports(qPreds))
    assert(!Greta.supports(TrendQuery(p, Semantics.CONT)))
  }

  test("A-Seq reports its flattened query count (grows with match length)") {
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY)
    val shortEvs = Vector.tabulate(6)(i => Ev(i + 1L, if (i < 5) "A" else "B"))
    val longEvs = Vector.tabulate(12)(i => Ev(i + 1L, if (i < 11) "A" else "B"))
    val qs = ASeq.run(shortEvs, q, budget).trends
    val ql = ASeq.run(longEvs, q, budget).trends
    assert(qs == 5 && ql == 11) // one fixed-length query per realized a^i b
  }
}
