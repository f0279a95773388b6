package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Sliding-window assignment (WITHIN/SLIDE, Definition 6 and §7). */
class WindowSpecSpec extends AnyFunSuite {

  test("tumbling window: each time in exactly one window") {
    val w = WindowSpec(10, 10)
    assert(w.windowsOf(0) == Seq(0L))
    assert(w.windowsOf(9) == Seq(0L))
    assert(w.windowsOf(10) == Seq(10L))
    assert(w.windowsOf(25) == Seq(20L))
  }

  test("sliding window size 10 slide 5: interior times in two windows") {
    val w = WindowSpec(10, 5)
    assert(w.windowsOf(7) == Seq(0L, 5L))
    assert(w.windowsOf(12) == Seq(5L, 10L))
    assert(w.windowsOf(3) == Seq(0L)) // clamped: no negative window starts
  }

  test("paper q1 window: 10 minutes sliding 30 seconds") {
    val w = WindowSpec(600, 30)
    val wins = w.windowsOf(1000)
    assert(wins.size == 20) // 600/30 overlapping windows
    assert(wins.forall(wid => wid <= 1000 && 1000 < wid + 600))
  }

  test("membership invariant on random times: t in [wid, wid+size) for all assigned") {
    val r = new Random(7)
    for (_ <- 1 to 500) {
      val size = 1 + r.nextInt(100)
      val slide = 1 + r.nextInt(size)
      val w = WindowSpec(size, slide)
      val t = r.nextInt(10000).toLong
      val wins = w.windowsOf(t)
      assert(wins.nonEmpty)
      assert(wins.forall(wid => wid % slide == 0 && wid <= t && t < wid + size))
      // completeness: every multiple of slide covering t and >= 0 is included
      val all = (0L to t by slide).filter(wid => t < wid + size)
      assert(wins == all)
    }
  }

  test("negative timestamps are rejected, not silently dropped") {
    val e = intercept[IllegalArgumentException](WindowSpec(10, 5).windowsOf(-3))
    assert(e.getMessage.contains("-3"))
  }

  test("firstWindow and lastWindow are windowsOf's ends, and reject negative times") {
    val r = new Random(11)
    for (_ <- 1 to 500) {
      val size = 1 + r.nextInt(100)
      val w = WindowSpec(size, 1 + r.nextInt(size))
      val t = r.nextInt(10000).toLong
      assert(w.firstWindow(t) == w.windowsOf(t).head && w.lastWindow(t) == w.windowsOf(t).last)
    }
    val unbounded = WindowSpec(Long.MaxValue, Long.MaxValue)
    assert(unbounded.firstWindow(Long.MaxValue - 1) == 0L && unbounded.lastWindow(Long.MaxValue - 1) == 0L)
    assert(intercept[IllegalArgumentException](WindowSpec(10, 5).firstWindow(-1)).getMessage.contains("-1"))
    assert(intercept[IllegalArgumentException](WindowSpec(10, 5).lastWindow(-1)).getMessage.contains("-1"))
  }

  test("invalid windows are rejected") {
    assertThrows[IllegalArgumentException](WindowSpec(0, 1))
    assertThrows[IllegalArgumentException](WindowSpec(5, 10))
  }
}
