package repro.trendbench

import repro.core.Ev
import scala.collection.immutable.ArraySeq
import scala.util.Random

/** Workload `agg_hot`: the aggregators alone, on 120 stock-like and 120
  * transport-like substreams of 1k events. */
object AggHot {
  val perKind = 120
  val length = 1000

  def pool(seed: Long): IndexedSeq[ArraySeq[Ev]] = {
    val rnd = new Random(seed)
    (0 until perKind).flatMap(i =>
      Seq(Gen.stockSubstream(length, i, rnd), Gen.transportSubstream(length, perKind + i, rnd)))
  }

  def run(ctx: Ctx): Unit = {
    val m = ctx.metrics
    val subs = ctx.setup(reps = 15)(pool(ctx.seed))(_ => ())
    val hot = new Hot(subs, ctx.tally, ctx.tracer)
    ctx.log("reference pass")
    val ref = hot.reference()
    ctx.log("baseline gate")
    val gate = hot.gate()
    ctx.log("warm-up pass")
    hot.loop(0, traced = false, minPasses = 1)
    ctx.log("timed passes")
    if (!ctx.trace) {
      val loop = hot.loop(ctx.seconds, traced = false)
      ctx.log(loop.describe)
      Hot.report(m, hot, ref, gate, loop, None)
      m.lower("cpu_ns_per_event", loop.cpuNsPerEvent, "ns")
      // the aggregators keep no keyed state, so the pool's substream count
      // stands in for state_rows (a constant)
      m.lower("state_rows", subs.size.toDouble, "rows")
    } else {
      val plain = hot.loop(ctx.seconds / 2, traced = false)
      val traced = hot.loop(ctx.seconds / 2, traced = true)
      Hot.report(m, hot, ref, gate, plain, Some(traced))
      ctx.reportTraceOverhead(traced.eventsPerS, plain.eventsPerS)
    }
  }
}
