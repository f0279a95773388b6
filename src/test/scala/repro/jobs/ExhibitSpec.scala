package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Engines
import repro.bench.Experiments

/** The spark-submit entry point's argument handling. None of these tests
  * starts a SparkSession: a bad name is rejected before one is built, and
  * Table 9 needs no Spark work. */
class ExhibitSpec extends AnyFunSuite {

  private val valid = Seq("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table9")

  private def rejected(args: String*): String =
    intercept[IllegalArgumentException](Exhibit.main(args.toArray)).getMessage

  test("the valid exhibit names are the six figures and Table 9") {
    assert(Exhibit.names == valid)
  }

  test("an unknown exhibit name is rejected, listing the valid names") {
    for (args <- Seq(Seq("fig11"), Seq("Fig7", "100"), Seq("table"), Seq(""))) {
      val msg = rejected(args: _*)
      valid.foreach(n => assert(msg.contains(n), s"'$msg' lacks $n"))
    }
  }

  test("a missing exhibit name is rejected, listing the valid names") {
    val msg = rejected()
    valid.foreach(n => assert(msg.contains(n), s"'$msg' lacks $n"))
  }

  test("table9 prints exactly Experiments.table9Markdown") {
    val out = new java.io.ByteArrayOutputStream
    Console.withOut(out)(Exhibit.main(Array("table9")))
    assert(out.toString("UTF-8") == Experiments.table9Markdown + System.lineSeparator)
  }

  test("table9Markdown is a header plus one row per engine") {
    val lines = Experiments.table9Markdown.split("\n").toSeq
    assert(lines.size == 2 + Engines.all.size)
    assert(lines(0).startsWith("| Approach |"))
    assert(lines(1).matches("""(\|---)+\|"""))
    assert(lines.drop(2).map(_.split(""" \| """).head.stripPrefix("| ")) == Engines.all.map(_.name))
    lines.drop(2).foreach(l => assert(l.matches("""\| [^|]+ (\| [+-] ){6}\|"""), l))
  }
}
