package repro.bench

import repro.SparkSpec

/** Figure 8: skip-till-any-match at high rates, online approaches only
  * (GRETA, A-Seq, Cogra; stock data, 19 groups). Paper: GRETA's O(n²) graph
  * construction makes it fail past 20M events; A-Seq's flattened workload
  * costs 3–4 orders over Cogra; Cogra stays linear with constant memory. */
class Fig8AnyOnlineBench extends SparkSpec {

  test("fig8: skip-till-any-match sweep, online engines") {
    val scales = Experiments.fig8Points
    val rows = Experiments.fig8(spark, scales)
    println(Experiments.markdown(rows))

    val byEngine = rows.groupBy(_.engine)
    assert(byEngine("Cogra").forall(!_.dnf), "Cogra must never DNF")
    // engines agree wherever they terminate
    Experiments.assertCountsAgree(rows)
    // memory ordering at the largest scale every engine finished:
    // Cogra (per-type) < A-Seq (per flattened query) and GRETA (per event)
    val common = scales.map(_.toString).filter(x =>
      rows.filter(_.x == x).forall(!_.dnf))
    assert(common.nonEmpty, "at least the smallest scale should finish everywhere")
    val x = common.maxBy(_.toLong)
    def at(e: String) = rows.find(r => r.engine == e && r.x == x).get
    assert(at("Cogra").memUnits < at("A-Seq").memUnits)
    assert(at("Cogra").memUnits < at("GRETA").memUnits)
    // Cogra is the fastest online engine at that scale
    assert(at("Cogra").computeMs <= at("GRETA").computeMs)
    assert(at("Cogra").computeMs <= at("A-Seq").computeMs)
  }
}
