package repro.bench

import repro.SparkSpec

/** Figure 10: number of trend groups 5–30 (transport-style data, fixed
  * events per window, SEQ(A+,B) under ANY). Paper: two-step approaches DNF
  * below a group-count threshold (fewer groups → exponentially more trends
  * per group); online approaches are insensitive; Cogra wins memory by 2–8
  * orders. */
class Fig10GroupingBench extends SparkSpec {

  test("fig10: trend grouping sweep") {
    val rows = Experiments.fig10(spark, Experiments.fig10Points)
    println(Experiments.markdown(rows))

    val byEngine = rows.groupBy(_.engine)
    for (e <- Seq("GRETA", "A-Seq", "Cogra"))
      assert(byEngine(e).forall(!_.dnf), s"$e must not DNF")
    // two-step engines fail for few groups (paper: Flink <15, SASE <25)
    for (e <- Seq("Flink", "SASE")) {
      val dnfXs = byEngine(e).filter(_.dnf).map(_.x.toInt)
      assert(dnfXs.nonEmpty, s"$e should DNF at low group counts")
      assert(dnfXs.min == byEngine(e).map(_.x.toInt).min,
        s"$e DNF should occur at the fewest-groups end")
    }
    Experiments.assertCountsAgree(rows)
    val c = byEngine("Cogra").maxBy(_.x.toInt)
    assert(c.memUnits < byEngine("GRETA").maxBy(_.x.toInt).memUnits)
  }
}
