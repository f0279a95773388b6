package repro.bench

import repro.SparkSpec

/** Figure 7: skip-till-any-match (SEQ(A+,B), stock data, 19 groups), all
  * five approaches, varying events per window. Paper: Flink and SASE blow
  * up exponentially and fail past 40k events; online approaches survive.
  * Scales here are ~100x smaller; the cutoff reappears proportionally. */
class Fig7AnyAllBench extends SparkSpec {

  test("fig7: skip-till-any-match sweep, all engines") {
    val rows = Experiments.fig7(spark, Experiments.fig7Points)
    println(Experiments.markdown(rows))

    val byEngine = rows.groupBy(_.engine)
    // online approaches never DNF
    for (e <- Seq("GRETA", "A-Seq", "Cogra"))
      assert(byEngine(e).forall(!_.dnf), s"$e must not DNF at these scales")
    // the two-step approaches hit the exponential wall (paper: 40k cutoff)
    for (e <- Seq("Flink", "SASE"))
      assert(byEngine(e).exists(_.dnf), s"$e should DNF at the largest scale")
    // every engine that terminates agrees on the aggregates
    Experiments.assertCountsAgree(rows)
    // Cogra memory is scale-independent (one aggregate per type per substream)
    val cograMems = byEngine("Cogra").map(_.memUnits)
    assert(cograMems.max <= cograMems.min * 3,
      s"cogra memory should be ~constant across scales: $cograMems")
  }
}
