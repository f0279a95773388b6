package repro.bench

import repro.SparkSpec

/** Figure 5: contiguous semantics (q1-style M+ with increasing-rate
  * predicate, activity data, 14 groups), all approaches that support CONT
  * (Flink, SASE, Cogra), varying events per window. Paper: all terminate;
  * Cogra 27x faster than Flink and 12x than SASE at the top scale. */
class Fig5ContiguousBench extends SparkSpec {

  test("fig5: contiguous semantics sweep") {
    val rows = Experiments.fig5(spark, Experiments.fig5Points)
    println(Experiments.markdown(rows))

    val byEngine = rows.groupBy(_.engine)
    // under CONT the trend sets are small: every engine terminates (paper)
    assert(rows.forall(!_.dnf), "no engine should DNF under CONT")
    // all engines compute identical aggregates at every scale
    Experiments.assertCountsAgree(rows)
    // Cogra keeps O(1) aggregates per substream; Flink stores all matches
    val cogra = byEngine("Cogra").maxBy(_.events)
    val flink = byEngine("Flink").maxBy(_.events)
    assert(cogra.memUnits < flink.memUnits,
      s"cogra=${cogra.memUnits} flink=${flink.memUnits}")
    // Cogra is the fastest at the largest scale (paper: 27x / 12x)
    val sase = byEngine("SASE").maxBy(_.events)
    assert(cogra.computeMs <= flink.computeMs && cogra.computeMs <= sase.computeMs,
      s"cogra=${cogra.computeMs} flink=${flink.computeMs} sase=${sase.computeMs}")
  }
}
