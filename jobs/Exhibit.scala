package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{ExpRow, Experiments, JobSupport}

/** Every evaluation exhibit of the paper (§9) from one entry point:
  * `spark-submit --class repro.jobs.Exhibit ... fig5|fig6|fig7|fig8|fig9|fig10|table9 [x,...]`.
  * The optional points replace the figure's own (`Experiments.fig5Points`
  * and so on): events per window (Figures 5–8), predicate selectivities
  * (Figure 9) or trend groups (Figure 10). Table 9 needs no Spark work and
  * takes no points. */
object Exhibit {

  private type Points = Option[Seq[String]]

  private def pts[A](points: Points, default: Seq[A])(parse: String => A): Seq[A] =
    points.fold(default)(_.map(parse))

  /** Each figure (see `Experiments`), run over the given points or its own. */
  private val figures: Seq[(String, (SparkSession, Points) => Seq[ExpRow])] = {
    import Experiments._
    Seq(
      ("fig5", (s, p) => fig5(s, pts(p, fig5Points)(_.toLong))),
      ("fig6", (s, p) => fig6(s, pts(p, fig6Points)(_.toLong))),
      ("fig7", (s, p) => fig7(s, pts(p, fig7Points)(_.toLong))),
      ("fig8", (s, p) => fig8(s, pts(p, fig8Points)(_.toLong))),
      ("fig9", (s, p) => fig9(s, pts(p, fig9Points)(_.toDouble))),
      ("fig10", (s, p) => fig10(s, pts(p, fig10Points)(_.toInt))))
  }

  val names: Seq[String] = figures.map(_._1) :+ "table9"

  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    if (!names.contains(name))
      throw new IllegalArgumentException(
        s"unknown exhibit '$name'; expected one of ${names.mkString(", ")}")
    if (name == "table9") println(Experiments.table9Markdown)
    else {
      val points = args.lift(1).map(_.split(",").toSeq.map(_.trim))
      val spark = JobSupport.session(s"cogra-$name")
      try println(Experiments.markdown(figures.toMap.apply(name)(spark, points)))
      finally spark.stop()
    }
  }
}
