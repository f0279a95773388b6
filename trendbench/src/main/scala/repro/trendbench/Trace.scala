package repro.trendbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** One timed interval around a call into a layer, or around a prefix job. */
final case class Span(id: Int, parent: Int, run: String, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the traced run; it is written out once, when
  * the run ends. Spans with parent 0 are roots. A disabled tracer records
  * nothing. */
final class Tracer(val enabled: Boolean, val run: String) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.HashMap.empty[Int, (Int, String, Long)]
  private var nextId = 1

  /** Start a span now; returns its id (0 when disabled). */
  def begin(name: String, parent: Int = 0): Int =
    if (!enabled) 0
    else {
      val id = nextId
      nextId += 1
      open(id) = (parent, name, System.nanoTime())
      id
    }

  def end(id: Int): Unit = if (enabled) {
    val (parent, name, start) = open.remove(id).getOrElse(sys.error(s"span $id not open"))
    spans += Span(id, parent, run, name, start, System.nanoTime())
  }

  /** Record a span whose bounds were measured by the caller. */
  def record(name: String, parent: Int, startNs: Long, endNs: Long): Unit = if (enabled) {
    spans += Span(nextId, parent, run, name, startNs, endNs)
    nextId += 1
  }

  def span[T](name: String, parent: Int = 0)(body: Int => T): T = {
    val id = begin(name, parent)
    try body(id) finally end(id)
  }

  def all: Seq[Span] = spans.toSeq
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** Self time of every span: its duration minus the time its children
    * cover (children of one parent run one after another). */
  def selfNs: Map[Int, Long] = {
    val covered = spans.groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.iterator.map(s => s.id -> (s.durNs - covered.getOrElse(s.id, 0L))).toMap
  }

  /** Write the spans as JSON lines. */
  def write(file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val self = selfNs
    val lines = spans.iterator.map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"run":"${s.run}","name":"${s.name}",""" +
      s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ns":${self(s.id)}}"""
    }
    Files.write(file, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}
