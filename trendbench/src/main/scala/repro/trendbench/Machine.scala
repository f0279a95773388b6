package repro.trendbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Machine state sampled before and after a run, so that a noisy run can be
  * told apart: load average, the hypervisor steal ticks of `/proc/stat`, and
  * the time of a fixed single-thread loop. Other tenants slow a shared
  * machine's CPUs by a third and more for minutes at a time without raising
  * load or steal; the loop's time shows it. */
final case class MachineSample(loadAvg: Seq[Double], stealTicks: Long, probeMs: Double)

object Machine {
  /** Median milliseconds of a fixed integer loop (xorshift steps). */
  def probeMs(): Double = {
    var x = 88172645463325252L
    val ms = (0 until 9).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < 20000000) {
        x ^= x << 13; x ^= x >>> 7; x ^= x << 17
        i += 1
      }
      (System.nanoTime() - t0) / 1e6
    }
    if (x == 42) println() // keeps the loop observable
    Stats.median(ms)
  }

  def sample(): MachineSample = {
    val load = Try(new String(Files.readAllBytes(Paths.get("/proc/loadavg"))).trim.split("\\s+")
      .take(3).map(_.toDouble).toSeq).getOrElse(Seq.empty)
    // "cpu  user nice system idle iowait irq softirq steal ..."
    val steal = Try(Files.readAllLines(Paths.get("/proc/stat")).asScala
      .find(_.startsWith("cpu ")).map(_.trim.split("\\s+")(8).toLong).getOrElse(-1L)).getOrElse(-1L)
    MachineSample(load, steal, probeMs())
  }

  def nproc: Int = Runtime.getRuntime.availableProcessors()

  private val threadMx = ManagementFactory.getThreadMXBean

  /** CPU nanoseconds of every live Java thread so far, by thread id. */
  def threadCpuNs(): Map[Long, Long] =
    threadMx.getAllThreadIds.iterator.map(id => id -> threadMx.getThreadCpuTime(id)).filter(_._2 >= 0).toMap

  /** CPU nanoseconds the Java threads spent since the `before` sample: the
    * driver, Spark's task and streaming threads, and the threads started
    * since (time of threads that ended in between is lost). This is what
    * the program itself runs. It leaves out the JVM's own GC and JIT
    * threads, and steal, the time the hypervisor ran other tenants on this
    * machine's CPUs: on a shared 4-vCPU host that came and went for minutes
    * and, while it lasted, made the same Spark pass take up to 1.7x as long
    * on the wall clock. */
  def cpuNsSince(before: Map[Long, Long]): Long =
    threadCpuNs().iterator.map { case (id, ns) => ns - before.getOrElse(id, 0L) }.sum

  /** The machine record stored with every result. */
  def record(before: MachineSample, after: MachineSample, seed: Long,
             sparkMaster: String, shufflePartitions: Int): java.util.Map[String, Object] = {
    val m = new java.util.LinkedHashMap[String, Object]()
    m.put("nproc", Int.box(nproc))
    m.put("max_heap_bytes", Long.box(Runtime.getRuntime.maxMemory()))
    m.put("jvm", s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}")
    m.put("gc", ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(","))
    m.put("spark_master", sparkMaster)
    m.put("shuffle_partitions", Int.box(shufflePartitions))
    m.put("seed", Long.box(seed))
    m.put("load_avg_before", before.loadAvg.map(Double.box).asJava)
    m.put("load_avg_after", after.loadAvg.map(Double.box).asJava)
    m.put("probe_ms_before", Double.box(before.probeMs))
    m.put("probe_ms_after", Double.box(after.probeMs))
    m.put("steal_ticks_delta",
      Long.box(if (before.stealTicks < 0 || after.stealTicks < 0) -1L else after.stealTicks - before.stealTicks))
    m
  }
}
