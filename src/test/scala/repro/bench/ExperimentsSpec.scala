package repro.bench

import repro.SparkSpec

/** The exhibits are functions of their inputs: the generated data and the
  * engines' work counts do not depend on the machine, so neither do the
  * DNF walls. */
class ExperimentsSpec extends SparkSpec {

  test("DNF is deterministic: a Fig. 7 sweep run twice gives identical rows but for the ms columns") {
    def run() = Experiments.fig7(spark, Seq(100L, 200L, 400L))
      .map(_.copy(wallMs = 0, computeMs = 0, latencyMsPerWin = 0, throughputEvS = 0))
    val first = run()
    assert(run() == first)
    // the two-step engines hit their caps at 400 events/window, and only there
    assert(first.filter(_.dnf).map(r => (r.engine, r.x)).toSet == Set("Flink" -> "400", "SASE" -> "400"))
    assert(first.filterNot(_.dnf).forall(r => r.engine == "Cogra" || r.work > 0))
  }
}
