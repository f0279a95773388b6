package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{ExpRow, Experiments, JobSupport}

/** Every evaluation exhibit of the paper (§9) from one entry point:
  * `spark-submit --class repro.jobs.Exhibit ... fig5|fig6|fig7|fig8|fig9|fig10|table9 [x,...]`.
  * The optional points replace the figure's defaults: events per window
  * (Figures 5–8), predicate selectivities (Figure 9) or trend groups
  * (Figure 10). Table 9 needs no Spark work and takes no points. */
object Exhibit {

  private type Points = Option[Seq[String]]

  private def pts[A](points: Points, default: Seq[A])(parse: String => A): Seq[A] =
    points.fold(default)(_.map(parse))

  /** Each figure (see `Experiments`), run over the given points or its defaults. */
  private val figures: Seq[(String, (SparkSession, Points) => Seq[ExpRow])] = Seq(
    ("fig5", (s, p) => Experiments.fig5(s,
      pts(p, Seq(10_000L, 50_000L, 100_000L, 500_000L, 1_000_000L))(_.toLong))),
    ("fig6", (s, p) => Experiments.fig6(s,
      pts(p, Seq(1_000L, 5_000L, 10_000L, 50_000L, 100_000L, 500_000L))(_.toLong))),
    ("fig7", (s, p) => Experiments.fig7(s,
      pts(p, Seq(100L, 200L, 400L, 800L, 1_600L, 3_200L))(_.toLong))),
    ("fig8", (s, p) => Experiments.fig8(s,
      pts(p, Seq(10_000L, 20_000L, 50_000L, 100_000L, 200_000L, 500_000L))(_.toLong))),
    ("fig9", (s, p) => Experiments.fig9(s,
      pts(p, Seq(0.1, 0.3, 0.5, 0.7, 0.9))(_.toDouble), n = 400L)),
    // descending: fewer groups are exponentially harder for the two-step
    // engines, and the harness skips an engine's remaining points after DNF
    ("fig10", (s, p) => Experiments.fig10(s,
      pts(p, Seq(30, 25, 20, 15, 10, 5))(_.toInt), n = 600L)))

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
