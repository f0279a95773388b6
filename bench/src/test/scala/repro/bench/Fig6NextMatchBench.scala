package repro.bench

import repro.SparkSpec

/** Figure 6: skip-till-next-match ((SEQ(A+,B))+, transport data, 30
  * groups), SASE vs Cogra (the only engines supporting NEXT, Table 9).
  * Paper: SASE fails past 4M events/window with hours of delay; Cogra is 4
  * orders faster and 5 orders smaller at SASE's last point. */
class Fig6NextMatchBench extends SparkSpec {

  test("fig6: skip-till-next-match sweep") {
    val rows = Experiments.fig6(spark, Experiments.fig6Points)
    println(Experiments.markdown(rows))

    val cogra = rows.filter(_.engine == "Cogra")
    val sase = rows.filter(_.engine == "SASE")
    assert(cogra.forall(!_.dnf), "Cogra must never DNF")
    // identical aggregates wherever SASE terminates (two-step == online)
    Experiments.assertCountsAgree(rows)
    // Cogra memory is constant per substream; SASE's partial-trend sets grow
    val lastBoth = sase.filter(!_.dnf).map(_.x).toSet
    if (lastBoth.nonEmpty) {
      val x = lastBoth.maxBy(_.toLong)
      val c = cogra.find(_.x == x).get
      val s = sase.find(_.x == x).get
      assert(c.memUnits < s.memUnits, s"cogra=${c.memUnits} sase=${s.memUnits}")
      assert(c.computeMs <= s.computeMs, s"cogra=${c.computeMs} sase=${s.computeMs}")
    }
  }
}
