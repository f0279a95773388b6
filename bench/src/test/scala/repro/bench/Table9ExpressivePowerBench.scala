package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table 9: expressive power of the event aggregation approaches — printed
  * as the paper's matrix and asserted cell by cell. */
class Table9ExpressivePowerBench extends AnyFunSuite {

  test("table9: expressive power matrix") {
    println(Experiments.table9Markdown)
    val rows = Experiments.table9.map(r => r.engine -> r).toMap
    assert(rows("Flink").productIterator.toSeq ==
      Seq("Flink", false, true, false, true, true, false))
    assert(rows("SASE").productIterator.toSeq ==
      Seq("SASE", true, true, true, true, true, false))
    assert(rows("GRETA").productIterator.toSeq ==
      Seq("GRETA", true, true, false, false, true, true))
    assert(rows("A-Seq").productIterator.toSeq ==
      Seq("A-Seq", false, true, false, false, false, true))
    assert(rows("Cogra").productIterator.toSeq ==
      Seq("Cogra", true, true, true, true, true, true))
  }
}
