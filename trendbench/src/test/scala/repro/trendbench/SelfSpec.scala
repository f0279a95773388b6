package repro.trendbench

import java.nio.file.{Files, Paths}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Agg

/** Self-tests of the benchmark: its correctness gate fails what it must, and
  * every workload reports exactly the metrics `BENCHMARK.json` declares.
  * Run with `sbt test` in this directory. */
class SelfSpec extends AnyFunSuite {
  private val ref = Agg(12, 30, 456.5, 1.5, 99.0)
  private val declared = Paths.get("..", "BENCHMARK.json")

  test("a corrupted aggregate is a failed operation, not a saturated one") {
    val t = new Tally
    assert(t.op("ok")(Seq(Check.verdict(ref, ref))))
    assert(!t.op("corrupt")(Seq(Check.verdict(ref.copy(sum = ref.sum * (1 + 1e-6)), ref))))
    assert(!t.op("corrupt min")(Seq(Check.verdict(ref.copy(min = 1.5000000001), ref))))
    assert((t.attempted, t.failed, t.saturated) == (3L, 2L, 0L))
  }

  test("count, COUNT(E) and SUM agree within 1e-9 relative") {
    assert(Check.verdict(ref.copy(count = 12 * (1 + 5e-10)), ref) == Verdict.Pass)
    assert(Check.verdict(ref.copy(count = 12 * (1 + 5e-9)), ref) == Verdict.Mismatch)
  }

  test("a non-finite aggregate is failed and saturated, even when both sides are infinite") {
    val inf = ref.copy(count = Double.PositiveInfinity)
    val t = new Tally
    assert(!t.op("infinite")(Seq(Check.verdict(inf, inf))))
    assert(!t.op("nan")(Seq(Check.verdict(ref.copy(sum = Double.NaN), ref))))
    assert((t.attempted, t.failed, t.saturated) == (2L, 2L, 2L))
    // no finished trend: the neutral min/max of Agg.zero are not saturation
    assert(Check.verdict(Agg.zero, Agg.zero) == Verdict.Pass)
  }

  test("an exception fails the operation") {
    val t = new Tally
    t.crashed("boom", new IllegalStateException("boom"))
    assert((t.attempted, t.failed) == (1L, 1L))
    assert(t.notes.head.contains("boom"))
  }

  test("keyed results: a missing, extra or repeated key is a mismatch") {
    val want = Map("a" -> ref, "b" -> ref)
    assert(Check.keyed(Seq("a" -> ref, "b" -> ref), want).forall(_ == Verdict.Pass))
    assert(Check.keyed(Seq("a" -> ref), want).count(_ == Verdict.Mismatch) == 1)
    assert(Check.keyed(Seq("a" -> ref, "b" -> ref, "c" -> ref), want).count(_ == Verdict.Mismatch) == 1)
    assert(Check.keyed(Seq("a" -> ref, "a" -> ref, "b" -> ref), want).count(_ == Verdict.Mismatch) == 1)
  }

  test("metrics must match the declarations by name, unit and direction") {
    val decls = Seq(Decl("x_ms", "ms", "lower"), Decl("y", "1/s", "higher"))
    val m = new Metrics
    m.lower("x_ms", 1.5, "ms")
    assert(m.mismatches(decls) == Seq("y: not measured"))
    m.lower("y", 2.0, "1/s")
    assert(m.mismatches(decls).exists(_.startsWith("y: measured as 1/s/lower")))
    val n = new Metrics
    n.lower("x_ms", Double.NaN, "ms")
    n.higher("y", 1.0, "1/s")
    n.higher("z", 1.0, "count")
    assert(n.mismatches(decls).toSet ==
      Set("x_ms: value NaN is not a finite number", "z: not declared in BENCHMARK.json"))
  }

  test("every workload reports exactly the declared metrics, traced and untraced") {
    val work = Files.createDirectories(Paths.get("target", "selftest-work"))
    for (w <- Main.workloads; trace <- Seq(false, true)) {
      val code = Main.run(Main.Opts(w, 7, 0.01, trace, declared, work))
      assert(code == 0, s"$w trace=$trace")
    }
  }
}
