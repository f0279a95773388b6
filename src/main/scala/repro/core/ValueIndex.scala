package repro.core

/** Value-ordered index over the stored events of one T_e type (mixed
  * granularity, paper §5): an array-backed treap keyed by the event's value,
  * whose nodes hold the aggregate of the events with that value and the
  * aggregate of their subtree. For a type pair whose predicates are all
  * comparisons, the adjacent earlier events are those in the value ranges of
  * the pair's mask (`AdjPred.Cmp`), so their merged aggregate costs
  * O(log n_e) instead of a scan over the stored events.
  *
  * Keys are compared as IEEE doubles, as the comparisons are: -0.0 and 0.0
  * share a node, and NaN values, unordered against every value, are kept
  * aside in one aggregate. A node's
  * priority is a hash of its insertion number, so the same events inserted
  * in the same order build the same tree (a restored state sums as the
  * original did). Space Θ(n_e): two aggregates per distinct value.
  */
private[core] final class ValueIndex {
  import AdjPred.Cmp.{Above, At, Below, Unordered}
  import AggBuf.Width

  private var size = 0
  private var root = -1
  private var key = new Array[Double](8)
  private var left = new Array[Int](8)
  private var right = new Array[Int](8)
  /** Node i's own aggregate at `2 * Width * i`, its subtree's right after. */
  private var aggs = new Array[Double](8 * 2 * Width)
  private val nan = new AggBuf
  private val tmp = new AggBuf

  private def own(i: Int): Int = 2 * Width * i
  private def sub(i: Int): Int = 2 * Width * i + Width

  def insert(v: Double, a: AggBuf): Unit =
    if (v.isNaN) nan.add(a) else root = insert(root, v, a)

  private def insert(i: Int, k: Double, a: AggBuf): Int =
    if (i < 0) node(k, a)
    else if (k == key(i)) { a.addTo(aggs, own(i)); pull(i); i }
    else if (k < key(i)) {
      val l = insert(left(i), k, a)
      left(i) = l
      if (priority(l) > priority(i)) { left(i) = right(l); right(l) = i; pull(i); pull(l); l }
      else { pull(i); i }
    } else {
      val r = insert(right(i), k, a)
      right(i) = r
      if (priority(r) > priority(i)) { right(i) = left(r); left(r) = i; pull(i); pull(r); r }
      else { pull(i); i }
    }

  private def node(k: Double, a: AggBuf): Int = {
    if (size == key.length) {
      val cap = 2 * size
      key = java.util.Arrays.copyOf(key, cap)
      left = java.util.Arrays.copyOf(left, cap)
      right = java.util.Arrays.copyOf(right, cap)
      aggs = java.util.Arrays.copyOf(aggs, cap * 2 * Width)
    }
    val i = size
    size += 1
    key(i) = k; left(i) = -1; right(i) = -1
    a.store(aggs, own(i)); a.store(aggs, sub(i))
    i
  }

  /** A pseudo-random priority per insertion number (murmur3's finalizer). */
  private def priority(i: Int): Int = {
    var h = i * 0x9E3779B9
    h ^= h >>> 16; h *= 0x85EBCA6B
    h ^= h >>> 13; h *= 0xC2B2AE35
    h ^ (h >>> 16)
  }

  /** Recompute node i's subtree aggregate from its children's. */
  private def pull(i: Int): Unit = {
    tmp.clear()
    if (left(i) >= 0) tmp.add(aggs, sub(left(i)))
    tmp.add(aggs, own(i))
    if (right(i) >= 0) tmp.add(aggs, sub(right(i)))
    tmp.store(aggs, sub(i))
  }

  /** acc = merge(acc, aggregate of the stored events whose value p
    * satisfies `AdjPred.Cmp.test(mask, p, v)`). */
  def query(mask: Int, v: Double, acc: AggBuf): Unit = {
    if (v.isNaN) { if ((mask & Unordered) != 0 && root >= 0) acc.add(aggs, sub(root)) }
    else (mask & (Below | At | Above)) match {
      case Below => below(v, inclusive = false, acc)
      case At => at(v, acc)
      case Above => above(v, inclusive = false, acc)
      case m if m == (Below | At) => below(v, inclusive = true, acc)
      case m if m == (At | Above) => above(v, inclusive = true, acc)
      case m if m == (Below | Above) => below(v, inclusive = false, acc); above(v, inclusive = false, acc)
      case m if m == (Below | At | Above) => if (root >= 0) acc.add(aggs, sub(root))
      case _ => // contradictory comparisons: no ordered value
    }
    if ((mask & Unordered) != 0) acc.add(nan)
  }

  private def below(k: Double, inclusive: Boolean, acc: AggBuf): Unit = {
    var i = root
    while (i >= 0) {
      if (key(i) < k || (inclusive && key(i) == k)) {
        if (left(i) >= 0) acc.add(aggs, sub(left(i)))
        acc.add(aggs, own(i))
        i = right(i)
      } else i = left(i)
    }
  }

  private def above(k: Double, inclusive: Boolean, acc: AggBuf): Unit = {
    var i = root
    while (i >= 0) {
      if (key(i) > k || (inclusive && key(i) == k)) {
        if (right(i) >= 0) acc.add(aggs, sub(right(i)))
        acc.add(aggs, own(i))
        i = left(i)
      } else i = right(i)
    }
  }

  private def at(k: Double, acc: AggBuf): Unit = {
    var i = root
    while (i >= 0 && key(i) != k) i = if (k < key(i)) left(i) else right(i)
    if (i >= 0) acc.add(aggs, own(i))
  }
}
