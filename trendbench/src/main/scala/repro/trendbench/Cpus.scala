package repro.trendbench

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Moves the calling thread from CPU to CPU, so that a single-threaded
  * measurement samples every CPU the process may use alike. On a shared
  * machine the CPUs differ in speed, for minutes at a time, with what runs
  * next to them; a thread left where the scheduler put it measures that
  * placement. Without `taskset` (or off Linux) this does nothing.
  *
  * On a shared 4-vCPU virtual machine, 8 alternating pairs of `agg_hot`
  * runs (seeds 11-18, 12 s) without and with this rotation gave run-to-run
  * spreads (quartile distance over median) of 0.17 and 0.03 for type-grained
  * ns/event, 0.18 and 0.06 for pattern-grained, and 0.14 for mixed-grained
  * either way. */
final class Cpus {
  /** The CPUs this process may run on, from `Cpus_allowed_list`. */
  val allowed: IndexedSeq[Int] = Try {
    val line = Files.readAllLines(Paths.get("/proc/self/status")).asScala
      .find(_.startsWith("Cpus_allowed_list:")).get.split(":")(1).trim
    line.split(",").toIndexedSeq.flatMap { r =>
      r.split("-") match {
        case Array(a) => Seq(a.toInt)
        case Array(a, b) => a.toInt to b.toInt
      }
    }
  }.getOrElse(IndexedSeq.empty)

  private val tid: Option[String] =
    Try(Paths.get("/proc/thread-self").toRealPath().getFileName.toString).toOption

  private def taskset(cpus: String): Boolean = tid.exists { t =>
    Try(new ProcessBuilder("taskset", "-pc", cpus, t).redirectErrorStream(true)
      .redirectOutput(ProcessBuilder.Redirect.DISCARD).start().waitFor() == 0).getOrElse(false)
  }

  /** Pin the calling thread (the one that built this object) to the k-th
    * allowed CPU, cyclically. */
  def pin(k: Int): Unit = if (allowed.size > 1) taskset(allowed(k % allowed.size).toString)

  /** Let the thread run on every allowed CPU again. */
  def release(): Unit = if (allowed.size > 1) taskset(allowed.mkString(","))
}
