package repro.bench

import repro.SparkSpec

/** Figure 9: predicate selectivity 10–90% (SEQ(A+,B) under ANY with a
  * tunable-selectivity predicate on (A,A) adjacency; stock data; 50k-event
  * windows in the paper, scaled down here). Engines: Flink, SASE, GRETA,
  * Cogra at mixed granularity (A-Seq excluded — no predicate support).
  * Paper: Flink fails past 50% selectivity; Cogra beats SASE by 2 orders
  * and GRETA by 2x at 90%. */
class Fig9SelectivityBench extends SparkSpec {

  test("fig9: predicate selectivity sweep") {
    val rows = Experiments.fig9(spark, Experiments.fig9Points)
    println(Experiments.markdown(rows))

    val byEngine = rows.groupBy(_.engine)
    assert(byEngine("Cogra").forall(!_.dnf))
    assert(byEngine("GRETA").forall(!_.dnf))
    // Flink's stored-trend memory explodes with selectivity (paper: DNF >50%)
    assert(byEngine("Flink").exists(_.dnf), "Flink should DNF at high selectivity")
    // all engines that terminate agree
    Experiments.assertCountsAgree(rows)
    // Cogra stores only restricted-type events: fewer units than GRETA's
    // all-matched-events graph at the top selectivity (paper: 2x)
    val c = byEngine("Cogra").maxBy(_.x.toDouble)
    val g = byEngine("GRETA").maxBy(_.x.toDouble)
    assert(c.memUnits <= g.memUnits, s"cogra=${c.memUnits} greta=${g.memUnits}")
  }
}
