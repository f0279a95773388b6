package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Aggregate bundle algebra (the Σ and extension operations of Table 8).
  * Each test runs on every implementation of the algebra: the immutable
  * [[Agg]] and the in-place [[AggBuf]] the aggregators update per event,
  * both as a buffer and as a slot of a `Double` array. */
class AggSpec extends AnyFunSuite {

  /** One implementation of Table 8's merge and extend. */
  private final class Kernel(val name: String, val merge: (Agg, Agg) => Agg,
                             val extend: (Agg, Double, Boolean) => Agg)

  private val kernels: Seq[Kernel] = Seq(
    new Kernel("Agg", Agg.merge, Agg.extend),
    new Kernel("AggBuf",
      (a, b) => { val x, y = new AggBuf; x.set(a); y.set(b); x.add(y); x.toAgg },
      (a, v, t) => { val x = new AggBuf; x.set(a); x.extend(v, t); x.toAgg }),
    new Kernel("AggBuf slot",
      (a, b) => {
        val slots = AggBuf.zeros(2); AggBuf.write(slots, AggBuf.Width, a)
        val y = new AggBuf; y.set(b); y.addTo(slots, AggBuf.Width)
        AggBuf.read(slots, AggBuf.Width)
      },
      (a, v, t) => {
        val slots = AggBuf.zeros(1); AggBuf.write(slots, 0, a)
        val x = new AggBuf; x.add(slots, 0); x.extend(v, t); x.store(slots, 0)
        AggBuf.read(slots, 0)
      }))

  /** Equal up to the summation tolerance of the associativity test. */
  private def close(l: Agg, r: Agg): Boolean =
    math.abs(l.count - r.count) < 1e-9 && math.abs(l.countE - r.countE) < 1e-9 &&
      math.abs(l.sum - r.sum) < 1e-9 && l.min == r.min && l.max == r.max

  /** `k.merge(a, b)`, checked against [[Agg.merge]]. */
  private def merge(k: Kernel, a: Agg, b: Agg): Agg = {
    val m = k.merge(a, b)
    assert(close(m, Agg.merge(a, b)), s"${k.name}: merge($a, $b) = $m")
    m
  }

  /** `k.extend(a, v, isTarget)`, checked against [[Agg.extend]]. */
  private def extend(k: Kernel, a: Agg, v: Double, isTarget: Boolean): Agg = {
    val e = k.extend(a, v, isTarget)
    assert(close(e, Agg.extend(a, v, isTarget)), s"${k.name}: extend($a, $v, $isTarget) = $e")
    e
  }

  private def randAgg(r: Random): Agg = {
    val c = r.nextInt(100)
    if (c == 0) Agg.zero
    else {
      val mn = r.nextDouble() * 100 - 50
      val mx = mn + r.nextDouble() * 50
      Agg(c, r.nextInt(100), r.nextDouble() * 200 - 100, mn, mx)
    }
  }

  private def samples(seed: Int, n: Int = 200): Seq[Agg] = {
    val r = new Random(seed)
    Seq.fill(n)(randAgg(r))
  }

  test("zero is the identity of merge") {
    for (k <- kernels; a <- samples(1)) {
      assert(merge(k, a, Agg.zero) == a)
      assert(merge(k, Agg.zero, a) == a)
    }
  }

  test("merge is commutative") {
    for (k <- kernels) {
      val r = new Random(2)
      for (_ <- 1 to 200) {
        val (a, b) = (randAgg(r), randAgg(r))
        assert(merge(k, a, b) == merge(k, b, a))
      }
    }
  }

  test("merge is associative") {
    for (k <- kernels) {
      val r = new Random(3)
      for (_ <- 1 to 200) {
        val (a, b, c) = (randAgg(r), randAgg(r), randAgg(r))
        val l = merge(k, merge(k, a, b), c)
        val rr = merge(k, a, merge(k, b, c))
        assert(math.abs(l.count - rr.count) < 1e-9 && math.abs(l.sum - rr.sum) < 1e-9 &&
          l.min == rr.min && l.max == rr.max)
      }
    }
  }

  test("extend of zero is zero (no trends to extend)") {
    for (k <- kernels) assert(extend(k, Agg.zero, 42.0, isTarget = true) == Agg.zero)
  }

  test("extend by a non-target event changes nothing (Table 8 x-rows)") {
    for (k <- kernels; a <- samples(4)) assert(extend(k, a, 7.0, isTarget = false) == a)
  }

  test("extend startUnit by a target event yields a singleton trend") {
    for (k <- kernels) assert(extend(k, Agg.startUnit, 5.0, isTarget = true) == Agg(1, 1, 5.0, 5.0, 5.0))
  }

  test("extend adds one target event per trend: countE += count, sum += v*count") {
    for (k <- kernels) {
      val r = new Random(5)
      for (_ <- 1 to 200) {
        val a = randAgg(r)
        val v = r.nextDouble() * 20 - 10
        val e = extend(k, a, v, isTarget = true)
        if (!a.isZero) {
          assert(e.count == a.count)
          assert(e.countE == a.countE + a.count)
          assert(math.abs(e.sum - (a.sum + v * a.count)) < 1e-6)
          assert(e.min == math.min(a.min, v) && e.max == math.max(a.max, v))
        }
      }
    }
  }

  test("avg = sum / countE; NaN when no target events") {
    assert(Agg(2, 4, 12, 1, 5).avg == 3.0)
    assert(Agg.startUnit.avg.isNaN)
  }

  test("startUnit represents one empty trend") {
    assert(Agg.startUnit.count == 1 && Agg.startUnit.countE == 0 &&
      Agg.startUnit.min.isPosInfinity && Agg.startUnit.max.isNegInfinity)
  }
}
