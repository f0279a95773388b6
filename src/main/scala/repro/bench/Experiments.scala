package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.baselines._
import repro.streams.EventGen

/** One measured point of an experiment (a row of a figure's table). */
final case class ExpRow(fig: String, engine: String, x: String,
                        events: Long, windows: Long,
                        wallMs: Double, computeMs: Double,
                        latencyMsPerWin: Double, throughputEvS: Double,
                        memUnits: Long, trends: Long, work: Long,
                        totalCount: Double, dnf: Boolean)

/** Reproduction harness for the paper's evaluation (§9, Figures 5–10 and
  * Table 9). Each `figN` method regenerates one experiment's numbers and
  * `table9Markdown` renders the Table 9 matrix; the per-exhibit bench suites
  * and `jobs/Exhibit` are thin wrappers.
  *
  * Scale points are ~1000x below the paper's (see DESIGN.md §5): the
  * two-step baselines are exponential and hit their "does not terminate"
  * cutoffs at proportionally smaller workloads here. Each figure fixes the
  * work caps (see [[Budget]]) of the engines that DNF in it, the others run
  * at `Budget()`: a cap is the next 1-2-5 value above the largest window's
  * work at the engine's last point that finishes in EXPERIMENTS.md. Once an
  * engine DNFs at a scale, larger scales are reported DNF without being run
  * (the paper plots the same way).
  */
object Experiments {

  /** Measure one engine on one workload. Events must already be cached.
    * The row is DNF if any window is; its count sums the finished windows.
    * `memUnits` is the sum of the per-substream peaks, as if every
    * substream's state were held at once; `work` is the largest finished
    * window's work count, the one the cap applies to. */
  def measure(spark: SparkSession, fig: String, x: String, events: Dataset[Ev],
              nEvents: Long, q: TrendQuery, engine: TrendEngine, budget: Budget): ExpRow = {
    val t0 = System.nanoTime()
    val wins = SparkRunner.run(spark, events, q, engine, budget).collect()
    val wallMs = (System.nanoTime() - t0) / 1e6
    val computeMs = wins.iterator.map(_.computeMs).sum
    ExpRow(fig, engine.name, x, nEvents, wins.length.toLong, wallMs, computeMs,
      latencyMsPerWin = if (wins.isEmpty) 0 else computeMs / wins.length,
      throughputEvS = nEvents / math.max(1e-9, wallMs / 1000.0),
      memUnits = wins.iterator.map(_.peakUnits).sum,
      trends = wins.iterator.map(_.trends).sum,
      work = wins.iterator.map(_.work).maxOption.getOrElse(0L),
      totalCount = wins.iterator.filterNot(_.dnf).map(_.count).sum,
      dnf = wins.exists(_.dnf))
  }

  /** Run `engines` over the points, each at its cap in `caps` or at
    * `Budget()`; skip an engine after its first DNF (emitting DNF rows): each
    * figure orders its points by growing work, and a work cap, unlike a wall
    * clock, gives the same DNF on every run. Each distinct dataset is cached
    * and counted once, when first measured. */
  private def sweep(spark: SparkSession, fig: String,
                    points: Seq[(String, Dataset[Ev], Long, TrendQuery)],
                    engines: Seq[TrendEngine],
                    caps: Map[TrendEngine, Long]): Seq[ExpRow] = {
    val dead = scala.collection.mutable.Set.empty[String]
    val rows = for ((x, ds, n, q) <- points; e <- engines if e.supports(q)) yield {
      if (dead(e.name)) {
        ExpRow(fig, e.name, x, n, 0, 0, 0, 0, 0, 0, 0, 0, 0, dnf = true)
      } else {
        if (ds.storageLevel == StorageLevel.NONE) { ds.persist(); ds.count() }
        val r = measure(spark, fig, x, ds, n, q, e, caps.get(e).fold(Budget())(Budget(_)))
        if (r.dnf) dead += e.name
        r
      }
    }
    points.foreach(_._2.unpersist())
    rows
  }

  /** Sliding window holding ~`n` events: size n, slide n/2, stream of 2n
    * events at one event per time unit (≈4–5 windows). */
  private def winFor(n: Long): WindowSpec = WindowSpec(n, math.max(1, n / 2))

  import Pattern._

  /** Each figure's points, the ones EXPERIMENTS.md reports: events per
    * window (Figures 5–8), predicate selectivities (Figure 9) and trend
    * groups (Figure 10). The bench suites and `jobs/Exhibit` run these. */
  val fig5Points: Seq[Long] = Seq(10_000L, 50_000L, 100_000L, 200_000L)
  val fig6Points: Seq[Long] = Seq(1_000L, 5_000L, 10_000L, 50_000L, 100_000L)
  val fig7Points: Seq[Long] = Seq(100L, 200L, 400L, 800L, 1_600L)
  val fig8Points: Seq[Long] = Seq(10_000L, 50_000L, 100_000L, 200_000L, 500_000L)
  val fig9Points: Seq[Double] = Seq(0.1, 0.3, 0.5, 0.7, 0.9)
  // descending: fewer groups are exponentially harder for the two-step
  // engines, and the harness skips an engine's remaining points after DNF
  val fig10Points: Seq[Int] = Seq(30, 25, 20, 15, 10, 5)

  // ---- Figure 5: contiguous semantics, q1-style, activity data ----------
  // PATTERN M+  SEMANTICS contiguous  WHERE M.rate < NEXT(M).rate, 14 groups
  def q1(win: WindowSpec): TrendQuery =
    TrendQuery(plus(tp("M")), Semantics.CONT, Seq(AdjPred.Cmp("M", "M", "<")),
               Some("M"), win)

  def fig5(spark: SparkSession, scales: Seq[Long]): Seq[ExpRow] = {
    val points = scales.map { n =>
      (n.toString, EventGen.activity(spark, 2 * n, 14, seed = 11), 2 * n, q1(winFor(n)))
    }
    sweep(spark, "fig5-CONT", points, Seq(FlinkLike, Sase, Engines.CograEngine), Map.empty)
  }

  // ---- Figure 6: skip-till-next-match, q2-style, transport data ---------
  // PATTERN (SEQ(A+,B))+  SEMANTICS skip-till-next-match, 30 groups
  def q2(win: WindowSpec): TrendQuery =
    TrendQuery(plus(seq(plus(tp("A")), tp("B"))), Semantics.NEXT, Nil, None, win)

  def fig6(spark: SparkSession, scales: Seq[Long]): Seq[ExpRow] = {
    val points = scales.map { n =>
      (n.toString, EventGen.transport(spark, 2 * n, 30, seed = 17), 2 * n, q2(winFor(n)))
    }
    sweep(spark, "fig6-NEXT", points, Seq(Sase, Engines.CograEngine), Map(Sase -> 500_000_000L))
  }

  // ---- Figures 7/8: skip-till-any-match, q3-style, stock data -----------
  // PATTERN SEQ(A+,B)  SEMANTICS skip-till-any-match, 19 groups
  def q3(win: WindowSpec, preds: Seq[AdjPred] = Nil): TrendQuery =
    TrendQuery(seq(plus(tp("A")), tp("B")), Semantics.ANY, preds, Some("B"), win)

  private def stockPoints(spark: SparkSession, scales: Seq[Long]) =
    scales.map(n => (n.toString, EventGen.stock(spark, 2 * n, 19, seed = 13), 2 * n, q3(winFor(n))))

  def fig7(spark: SparkSession, scales: Seq[Long]): Seq[ExpRow] =
    sweep(spark, "fig7-ANY-all", stockPoints(spark, scales), Engines.all,
          Map(FlinkLike -> 100_000L, Sase -> 20_000L))

  def fig8(spark: SparkSession, scales: Seq[Long]): Seq[ExpRow] =
    sweep(spark, "fig8-ANY-online", stockPoints(spark, scales), Seq(Greta, ASeq, Engines.CograEngine),
          Map(Greta -> 100_000_000L, ASeq -> 50_000_000L))

  // ---- Figure 9: predicate selectivity (ANY + adjacency predicate) ------
  def fig9(spark: SparkSession, selectivities: Seq[Double], n: Long = 400L): Seq[ExpRow] = {
    val ds = EventGen.stock(spark, 2 * n, 19, seed = 13)
    val points = selectivities.map { s =>
      (f"$s%.1f", ds, 2 * n, q3(winFor(n), Seq(AdjPred.Sel("A", "A", s))))
    }
    val engines = Seq(FlinkLike, Sase, Greta, Engines.CograEngine)
    sweep(spark, "fig9-selectivity", points, engines, Map(FlinkLike -> 200_000L, Sase -> 10_000_000L))
  }

  // ---- Figure 10: number of trend groups ---------------------------------
  def fig10(spark: SparkSession, groups: Seq[Int], n: Long = 600L): Seq[ExpRow] = {
    val points = groups.map { g =>
      val ds = EventGen.stream(spark, 2 * n, g, Seq("A" -> 0.5, "B" -> 0.3, "C" -> 0.2), 17, walkValues = false)
      (g.toString, ds, 2 * n, q3(winFor(n)))
    }
    sweep(spark, "fig10-grouping", points, Engines.all, Map(FlinkLike -> 10_000_000L, Sase -> 2_000_000L))
  }

  // ---- Table 9: expressive power matrix ----------------------------------
  final case class Table9Row(engine: String, kleene: Boolean, any: Boolean,
                             next: Boolean, cont: Boolean, adjPreds: Boolean,
                             online: Boolean)

  def table9: Seq[Table9Row] =
    Engines.all.map { e =>
      Table9Row(e.name, e.nativeKleene,
        e.supportsSemantics(Semantics.ANY), e.supportsSemantics(Semantics.NEXT),
        e.supportsSemantics(Semantics.CONT), e.supportsAdjPreds, e.online)
    }

  /** Table 9 as the paper's matrix, "+" for a supported feature. */
  def table9Markdown: String = {
    def m(b: Boolean) = if (b) "+" else "-"
    ("| Approach | Kleene | ANY | NEXT | CONT | adj. predicates | online |" +:
     "|---|---|---|---|---|---|---|" +:
     table9.map { r =>
       s"| ${r.engine} | ${m(r.kleene)} | ${m(r.any)} | ${m(r.next)} " +
       s"| ${m(r.cont)} | ${m(r.adjPreds)} | ${m(r.online)} |"
     }).mkString("\n")
  }

  /** Assert that all engines that terminated agree on COUNT(*) at every
    * scale point. ANY-semantics counts reach 1e100+ where different
    * summation orders differ in the last ulps, so agreement is relative
    * (1e-9); infinite counts (past Double range) must be infinite for all. */
  def assertCountsAgree(rows: Seq[ExpRow]): Unit =
    rows.groupBy(_.x).foreach { case (x, rs) =>
      val cs = rs.filter(!_.dnf).map(_.totalCount)
      if (cs.nonEmpty) {
        if (cs.exists(_.isInfinity))
          require(cs.forall(_.isInfinity), s"engines disagree at $x: $cs")
        else
          require(cs.max - cs.min <= 1e-9 * math.max(1.0, cs.max.abs),
            s"engines disagree at $x: $cs")
      }
    }

  // ---- reporting: bench suites and `jobs/Exhibit` print this table ------
  def markdown(rows: Seq[ExpRow]): String = {
    val header =
      "| fig | engine | x | events | windows | wall ms | compute ms | lat ms/win | evt/s | mem units | trends | max work/win | count | DNF |\n" +
      "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
    header + rows.map { r =>
      if (r.dnf)
        f"| ${r.fig} | ${r.engine} | ${r.x} | ${r.events} | - | - | - | - | - | - | - | - | - | DNF |"
      else
        f"| ${r.fig} | ${r.engine} | ${r.x} | ${r.events} | ${r.windows} | ${r.wallMs}%.0f " +
        f"| ${r.computeMs}%.1f | ${r.latencyMsPerWin}%.2f | ${r.throughputEvS}%.0f " +
        f"| ${r.memUnits} | ${r.trends} | ${r.work} | ${r.totalCount}%.4g |  |"
    }.mkString("\n")
  }
}
