package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.Pattern._
import scala.util.Random

/** The declarative reference (Definitions 2–4) against the paper's Figure 2,
  * plus the semantics-containment and trend-count growth claims (Table 3).
  */
class BruteForceSpec extends AnyFunSuite {

  private val P = plus(seq(plus(tp("A")), tp("B")))
  private val fig2 = Vector(
    Ev(1, "A"), Ev(2, "B"), Ev(3, "A"), Ev(4, "A"),
    Ev(5, "C"), Ev(6, "B"), Ev(7, "A"), Ev(8, "B"))

  test("Figure 2: 43 trends under skip-till-any-match (Example 2)") {
    assert(BruteForce.anyTrends(fig2, TrendQuery(P, Semantics.ANY)).size == 43)
  }

  test("Figure 2: 8 trends under skip-till-next-match (Example 7)") {
    assert(BruteForce.nextTrends(fig2, TrendQuery(P, Semantics.NEXT)).size == 8)
  }

  test("Figure 2: 2 trends under contiguous semantics (Example 4)") {
    val trends = BruteForce.contTrends(fig2, TrendQuery(P, Semantics.CONT))
    assert(trends.size == 2)
    assert(trends.map(_.map(_.time)).toSet == Set(Seq(1L, 2L), Seq(7L, 8L)))
  }

  test("Example 3: (a3,b6) not a NEXT trend, (a3,a4,b6) is") {
    val next = BruteForce.nextTrends(fig2, TrendQuery(P, Semantics.NEXT))
      .map(_.map(_.time))
    assert(!next.contains(Seq(3L, 6L)))
    assert(next.contains(Seq(3L, 4L, 6L)))
  }

  test("trends start at the start type and end at the end type") {
    val trends = BruteForce.anyTrends(fig2, TrendQuery(P, Semantics.ANY))
    assert(trends.forall(t => t.head.etype == "A" && t.last.etype == "B"))
  }

  private def randomStream(n: Int, seed: Int, types: Seq[String] = Seq("A", "A", "A", "B", "B", "C")): Vector[Ev] = {
    val r = new Random(seed)
    Vector.tabulate(n)(i => Ev(i + 1L, i + 1L, types(r.nextInt(types.size)), "g", r.nextInt(20).toDouble))
  }

  for (seed <- 1 to 15)
    test(s"containment CONT ⊆ NEXT ⊆ ANY (Figure 2 diagram), random stream seed=$seed") {
      val q = TrendQuery(P, Semantics.ANY)
      val evs = randomStream(10, seed)
      val any = BruteForce.anyTrends(evs, q).map(_.map(_.sid)).toSet
      val next = BruteForce.nextTrends(evs, q).map(_.map(_.sid)).toSet
      val cont = BruteForce.contTrends(evs, q).map(_.map(_.sid)).toSet
      assert(next.subsetOf(any))
      assert(cont.subsetOf(next))
    }

  test("Table 3: ANY trend count of a Kleene pattern grows exponentially") {
    // pure A+ over n a's: 2^n - 1 subsequences
    val q = TrendQuery(plus(tp("A")), Semantics.ANY)
    val counts = (1 to 10).map { n =>
      val evs = Vector.tabulate(n)(i => Ev(i + 1L, "A"))
      BruteForce.anyTrends(evs, q).size
    }
    assert(counts == (1 to 10).map(n => (1 << n) - 1))
  }

  test("Table 3: NEXT/CONT trend count of a Kleene pattern grows polynomially") {
    val qn = TrendQuery(plus(tp("A")), Semantics.NEXT)
    val counts = (1 to 8).map { n =>
      val evs = Vector.tabulate(n)(i => Ev(i + 1L, "A"))
      BruteForce.nextTrends(evs, qn).size
    }
    assert(counts == (1 to 8).map(n => n * (n + 1) / 2)) // quadratic, not exponential
  }

  test("Table 3: ANY count of an event sequence pattern grows polynomially") {
    val q = TrendQuery(seq(tp("A"), tp("B")), Semantics.ANY)
    val counts = (1 to 6).map { n =>
      val evs = Vector.tabulate(2 * n) (i => Ev(i + 1L, if (i % 2 == 0) "A" else "B"))
      BruteForce.anyTrends(evs, q).size
    }
    assert(counts == (1 to 6).map(n => n * (n + 1) / 2)) // pairs (a before b)
  }

  test("adjacency predicates filter trends (Definition 7 condition 3)") {
    val q = TrendQuery(plus(tp("A")), Semantics.ANY, Seq(AdjPred.Cmp("A", "A", "<")))
    val evs = Vector(Ev(1, "A", 1.0), Ev(2, "A", 3.0), Ev(3, "A", 2.0))
    val trends = BruteForce.anyTrends(evs, q).map(_.map(_.time))
    // increasing subsequences only
    assert(trends.toSet == Set(Seq(1L), Seq(2L), Seq(3L), Seq(1L, 2L), Seq(1L, 3L)))
  }

  test("aggregate over explicit trends computes all functions") {
    val q = TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, Nil, Some("A"))
    val evs = Vector(Ev(1, "A", 2.0), Ev(2, "A", 5.0), Ev(3, "B", 9.0))
    // trends: (a1,b3) (a2,b3) (a1,a2,b3)
    val a = BruteForce.evaluate(evs, q)
    assert(a.count == 3 && a.countE == 4) // 1+1+2 target events
    assert(a.sum == 2 + 5 + 7)
    assert(a.min == 2.0 && a.max == 5.0)
  }
}
