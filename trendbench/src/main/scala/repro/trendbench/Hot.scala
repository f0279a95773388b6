package repro.trendbench

import java.lang.management.ManagementFactory
import repro.baselines.{Budget, Greta, Sase}
import repro.core._
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The aggregator hot path: `Cogra.run` over pre-formed, time-ordered
  * substreams, single thread, no Spark. The closed loop's operation is a
  * pass: every hot query over the whole pool, the cheap granularities
  * repeated so that each query's block of calls lasts long enough to time
  * (sub-second samples vary 2-3x on a shared machine). Every result is
  * checked against the reference pass, which in turn is checked against
  * GRETA (ANY queries) and SASE (NEXT/CONT queries) on a fixed sample.
  */
final class Hot(pool: IndexedSeq[ArraySeq[Ev]], tally: Tally, tracer: Tracer) {
  import Hot._

  private val queries: Array[TrendQuery] = Queries.hot(unwindowed).toArray
  private val roles: Array[Int] = Array(Type, Mixed, Pattern, Pattern)
  private val nq = queries.length
  val events: Long = pool.iterator.map(_.size.toLong).sum
  /** One pass is a fixed amount of work that gives each granularity about
    * the same time: the type- and pattern-grained queries sweep the whole
    * pool several times, the mixed-grained one (about 100x slower per event)
    * sweeps `mixedSubstreams` substreams once, the next ones in each pass,
    * so that its median over the passes covers the whole pool: its cost per
    * event depends on the data far more than that of the others. */
  private val reps: Array[Int] = roles.map {
    case Type => math.max(1L, (typeBlockEvents + events - 1) / events).toInt
    case Mixed => 1
    case Pattern => math.max(1L, (patternBlockEvents + events - 1) / events).toInt
  }
  private val swept: Array[Int] = roles.map(r => if (r == Mixed) math.min(pool.size, mixedSubstreams) else pool.size)
  /** refs(q)(s): the reference pass's result of query q on substream s. */
  private val refs: Array[Array[Agg]] = Array.ofDim[Agg](nq, pool.size)

  private val threadMx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** First pass over the pool with a cold JIT; it fills the references. */
  def reference(): Reference = {
    var peakMixed = 0L
    var storedMixed = 0L
    val t0 = System.nanoTime()
    for (qi <- 0 until nq; si <- pool.indices) {
      val a = Cogra.aggregator(queries(qi))
      pool(si).foreach(a.onEvent)
      refs(qi)(si) = a.result
      a match {
        case m: MixedGrained if roles(qi) == Mixed =>
          peakMixed += m.peakUnits
          storedMixed += m.liveUnits - m.typeGrained.size - 1
        case _ =>
      }
    }
    val coldS = (System.nanoTime() - t0) / 1e9
    val mixedInfo = queries(roles.indexOf(Mixed)).info
    val relevant = pool.iterator.map(_.count(e => mixedInfo.contains(e.etype))).sum
    Reference(coldS, peakMixed, storedMixed, relevant.toDouble / pool.iterator.map(_.size).sum)
  }

  /** Check the references against the baselines on a fixed sample, and
    * time the baselines and Cogra there. GRETA is timed on a second round,
    * once the JIT has compiled it. */
  def gate(): Gate = {
    // evenly spaced, alternating parity: in `agg_hot` stock-like (even) and
    // transport-like (odd) substreams alternate
    def sample(k: Int): Seq[Int] = (0 until k).map(i => i * (pool.size / k) + (i + 1) % 2)
    val budget = Budget()
    var gretaNs, gretaEvents, saseNs, saseEvents = 0L
    def check(qi: Int, si: Int, engine: String)(run: => repro.baselines.RunResult): Long = {
      val t0 = System.nanoTime()
      val r = run
      val ns = System.nanoTime() - t0
      tally.op(s"$engine reference check, query $qi, substream $si") {
        if (r.dnf) Seq(Verdict.Mismatch) else Seq(Check.verdict(refs(qi)(si), r.agg))
      }
      ns
    }
    for (si <- sample(anySample); qi <- 0 until nq if queries(qi).semantics == Semantics.ANY)
      check(qi, si, "GRETA")(Greta.run(pool(si), queries(qi), budget))
    val qt = queries(roles.indexOf(Type))
    for (si <- sample(anySample)) {
      gretaNs += check(roles.indexOf(Type), si, "GRETA")(Greta.run(pool(si), qt, budget))
      gretaEvents += pool(si).size
    }
    for (qi <- 0 until nq if queries(qi).semantics != Semantics.ANY;
         si <- sample(if (queries(qi).semantics == Semantics.NEXT) nextSample else contSample)) {
      saseNs += check(qi, si, "SASE")(Sase.run(pool(si), queries(qi), budget))
      saseEvents += pool(si).size
    }
    // Cogra on GRETA's sample, repeated so that the timing spans milliseconds
    val cograNs = Seq.fill(5) {
      val t0 = System.nanoTime()
      for (_ <- 0 until 20; si <- sample(anySample)) Cogra.run(pool(si), qt)
      (System.nanoTime() - t0).toDouble / (20L * gretaEvents)
    }
    Gate(gretaNs.toDouble / gretaEvents, saseNs.toDouble / saseEvents, Stats.median(cograNs), anySample)
  }

  /** The closed loop: passes until `seconds` have passed and at least
    * `minPasses` ran. Passes are timed in this thread's CPU time, which
    * leaves out the time the hypervisor ran other tenants on this CPU (the
    * kernel accounts that as steal). Each query's calls are split in one
    * chunk per CPU, and the thread is moved to that CPU before the chunk
    * (untimed), so that every pass samples every CPU alike (see [[Cpus]]).
    * Traced, every call gets a span, its thread allocation and its own
    * latency sample. */
  def loop(seconds: Double, traced: Boolean, minPasses: Int = 5): Loop = {
    val cpus = new Cpus
    val chunks = math.max(1, cpus.allowed.size)
    val passMs = mutable.ArrayBuffer.empty[Double]
    val nsPerEvent = Array.fill(3)(mutable.ArrayBuffer.empty[Double])
    val callUs = Array.fill(3)(mutable.ArrayBuffer.empty[Double])
    val allocBytes = new Array[Long](3)
    val results = Array.ofDim[Agg](nq, pool.size)
    val gNs = new Array[Long](3)
    val gEv = new Array[Long](3)
    val totalEv = new Array[Long](3)
    val passEvents = mutable.ArrayBuffer.empty[Long]
    val gc0 = gcMs
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < deadline || passMs.size < minPasses) {
      java.util.Arrays.fill(gNs, 0L)
      java.util.Arrays.fill(gEv, 0L)
      val passSpan = tracer.begin("core.pass")
      var passNs = 0L
      var qi = 0
      while (qi < nq) {
        val q = queries(qi)
        val g = roles(qi)
        val out = results(qi)
        val calls = reps(qi) * swept(qi)
        // this pass's slice of the pool starts at substream `first`
        val first = (passMs.size.toLong * swept(qi) % pool.size).toInt
        var c = 0
        while (c < chunks) {
          cpus.pin(c)
          val b0 = threadMx.getCurrentThreadCpuTime
          var call = c * calls / chunks
          val until = (c + 1) * calls / chunks
          while (call < until) {
            val si = (first + call % swept(qi)) % pool.size
            val s = pool(si)
            if (traced) {
              val a0 = threadMx.getCurrentThreadAllocatedBytes
              val c0 = System.nanoTime()
              out(si) = Cogra.run(s, q)
              val c1 = System.nanoTime()
              allocBytes(g) += threadMx.getCurrentThreadAllocatedBytes - a0
              callUs(g) += (c1 - c0) / 1e3
              tracer.record(s"core.${roleNames(g)}", passSpan, c0, c1)
            } else out(si) = Cogra.run(s, q)
            call += 1
          }
          val ns = threadMx.getCurrentThreadCpuTime - b0
          gNs(g) += ns
          passNs += ns
          c += 1
        }
        val fed = reps(qi) * (0 until swept(qi)).map(j => pool((first + j) % pool.size).size.toLong).sum
        gEv(g) += fed
        totalEv(g) += fed
        qi += 1
      }
      passMs += passNs / 1e6
      passEvents += gEv.sum
      tracer.end(passSpan)
      for (g <- 0 until 3) nsPerEvent(g) += gNs(g).toDouble / gEv(g)
      // the last sweep of each query is checked, one operation per result
      for (qi <- 0 until nq; j <- 0 until swept(qi)) {
        val si = ((passMs.size - 1).toLong * swept(qi) % pool.size + j).toInt % pool.size
        tally.op(s"hot query $qi, substream $si") { Seq(Check.verdict(results(qi)(si), refs(qi)(si))) }
      }
    }
    cpus.release()
    Loop(passMs.toSeq, passEvents.toSeq, nsPerEvent.map(_.toSeq).toSeq, callUs.map(_.toSeq).toSeq,
         (0 until 3).map(g => allocBytes(g).toDouble / math.max(1L, totalEv(g))), (gcMs - gc0).toDouble)
  }

  /** Median nanoseconds to construct each query's aggregator. */
  def aggregatorNewNs(): Double = {
    var sink = 0L
    val perBlock = for (_ <- 0 until 5; q <- queries.toSeq) yield {
      val t0 = System.nanoTime()
      for (_ <- 0 until 2000) sink += Cogra.aggregator(q).peakUnits
      (System.nanoTime() - t0) / 2000.0
    }
    if (sink == 42) println() // keeps the constructions observable
    Stats.median(perBlock)
  }

}

object Hot {
  val Type = 0
  val Mixed = 1
  val Pattern = 2
  val roleNames: Array[String] = Array("type", "mixed", "pattern")

  /** Substreams are pre-formed, so the hot queries need no window. */
  val unwindowed: WindowSpec = WindowSpec(Long.MaxValue / 4, Long.MaxValue / 4)

  /** Baseline sample sizes: SASE under NEXT keeps one partial trend per
    * start event and takes about a second per 1k-event substream, so its
    * sample is the smallest. */
  val anySample = 8
  val nextSample = 1
  val contSample = 8

  /** Events one pass feeds to the type-grained query and to each
    * pattern-grained query, and substreams it feeds to the mixed-grained one:
    * about 0.3 s each, at 75 ns and 8 us per event. */
  val typeBlockEvents = 4000000L
  val patternBlockEvents = 2000000L
  val mixedSubstreams = 40

  final case class Reference(coldS: Double, mixedPeakUnits: Long, mixedStored: Long, relevantFrac: Double)
  final case class Gate(gretaNsPerEvent: Double, saseNsPerEvent: Double, cograNsPerEvent: Double,
                        sampleSubstreams: Int)
  /** @param passMs CPU milliseconds of each pass
    * @param passEvents events fed to the aggregators in each pass
    * @param nsPerEvent each granularity's CPU ns per event, pass by pass */
  final case class Loop(passMs: Seq[Double], passEvents: Seq[Long], nsPerEvent: Seq[Seq[Double]],
                        callUs: Seq[Seq[Double]], allocPerEvent: Seq[Double], gcMs: Double) {
    /** Median CPU ns per event of a pass. */
    def cpuNsPerEvent: Double = Stats.median(passMs.zip(passEvents).map { case (ms, n) => ms * 1e6 / n })
    def eventsPerS: Double = 1e9 / cpuNsPerEvent

    /** Each granularity's ns/event, pass by pass, for the log. */
    def describe: String = (0 until 3).map { g =>
      s"${roleNames(g)} ${nsPerEvent(g).map(x => f"$x%.0f").mkString(" ")}"
    }.mkString("ns/event per pass: ", "; ", "")
  }

  /** Report the hot loop: `mixed_peak_units` untraced; traced, the
    * per-layer metrics, ns/event from the untraced loop `plain` and the rest
    * from the `traced` loop, the reference pass and the gate. */
  def report(m: Metrics, hot: Hot, ref: Reference, gate: Gate, plain: Loop,
             traced: Option[Loop]): Unit = {
    if (traced.isEmpty) m.lower("mixed_peak_units", ref.mixedPeakUnits.toDouble, "units")
    traced.foreach { l =>
      for (g <- 0 until 3)
        m.lower(s"core.ns_per_event.${roleNames(g)}", Stats.median(plain.nsPerEvent(g)), "ns")
      for (g <- 0 until 3) {
        val us = l.callUs(g)
        m.lower(s"core.alloc_bytes_per_event.${roleNames(g)}", l.allocPerEvent(g), "B")
        m.lower(s"core.substream_us_p50.${roleNames(g)}", Stats.quantile(us, 0.5), "us")
        m.lower(s"core.substream_us_p99.${roleNames(g)}", Stats.quantile(us, 0.99), "us")
      }
      for (g <- 0 until 3) m.higher(s"core.substream_samples.${roleNames(g)}", l.callUs(g).size.toDouble, "count")
      m.lower("core.gc_ms", l.gcMs, "ms")
      m.lower("core.aggregator_new_ns", hot.aggregatorNewNs(), "ns")
      m.lower("core.mixed.stored_events", ref.mixedStored.toDouble, "count")
      m.lower("core.relevant_frac", ref.relevantFrac, "ratio")
      m.lower("core.cold_pass_s", ref.coldS, "s")
      m.lower("baselines.Greta.ns_per_event", gate.gretaNsPerEvent, "ns")
      m.lower("baselines.Sase.ns_per_event", gate.saseNsPerEvent, "ns")
      m.higher("speedup_vs_greta", gate.gretaNsPerEvent / gate.cograNsPerEvent, "ratio")
      m.higher("baselines.sample_substreams", gate.sampleSubstreams.toDouble, "count")
    }
  }
}
