package repro.core

/** Sliding window: WITHIN `size` SLIDE `slide` (paper Definition 6).
  * Window ids are window start times, multiples of `slide`. */
final case class WindowSpec(size: Long, slide: Long) extends Serializable {
  require(size > 0 && slide > 0 && slide <= size, s"bad window: size=$size slide=$slide")

  /** The earliest window start id covering time `t`; `t` must be
    * non-negative. */
  def firstWindow(t: Long): Long = {
    require(t >= 0, s"negative event timestamp: $t")
    math.max(0L, math.floorDiv(t - size, slide) + 1) * slide
  }

  /** The latest window start id covering time `t` (the last one starting at
    * or before `t`); `t` must be non-negative. */
  def lastWindow(t: Long): Long = {
    require(t >= 0, s"negative event timestamp: $t")
    math.floorDiv(t, slide) * slide
  }

  /** All window start ids an event at time `t` falls into, from
    * `firstWindow(t)` to `lastWindow(t)`. */
  def windowsOf(t: Long): Seq[Long] =
    (firstWindow(t) / slide to lastWindow(t) / slide).map(_ * slide)
}

/** Event trend aggregation query (paper Definition 6).
  *
  * Grouping and single-event predicates are represented by the event's
  * `group` field (paper §7 reduces them to stream partitioning), so the
  * query itself carries the pattern, semantics, adjacent-event predicates,
  * the aggregation target type, and the window.
  *
  * @param target type `E` whose attribute feeds COUNT(E)/MIN/MAX/SUM/AVG;
  *               defaults to the pattern's end type. COUNT(*) needs none.
  */
final case class TrendQuery(
    pattern: Pattern,
    semantics: Semantics,
    adjPreds: Seq[AdjPred] = Nil,
    targetType: Option[String] = None,
    window: WindowSpec = WindowSpec(Long.MaxValue, Long.MaxValue)) extends Serializable {

  @transient lazy val info: PatternInfo = PatternAnalyzer.analyze(pattern)
  /** The query compiled for the aggregators; built once per query object. */
  @transient lazy val plan: Plan = new Plan(this)
  def target: String = targetType.getOrElse(info.end)
  require(targetType.forall(pattern.types.contains), s"target $targetType not in pattern")
}
