package repro.trendbench

import org.apache.spark.TrendbenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Task-metric totals of the jobs between two [[SparkProbe.measure]] bounds. */
final case class TaskTotals(shuffleWriteBytes: Long, shuffleReadBytes: Long, shuffleRecords: Long,
                            executorCpuS: Double, gcMs: Long, tasks: Long, taskSkew: Double)

/** A `SparkListener` summing task metrics. */
final class SparkProbe(spark: SparkSession) extends SparkListener {
  private var writeBytes, readBytes, records, cpuNs, gcMs, tasks = 0L
  private val recordsPerReader = mutable.ArrayBuffer.empty[Long]
  spark.sparkContext.addSparkListener(this)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      tasks += 1
      writeBytes += m.shuffleWriteMetrics.bytesWritten
      readBytes += m.shuffleReadMetrics.totalBytesRead
      records += m.shuffleReadMetrics.recordsRead
      cpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
      if (m.shuffleReadMetrics.recordsRead > 0) recordsPerReader += m.shuffleReadMetrics.recordsRead
    }
  }

  /** Totals over the jobs `body` runs. Task skew is the largest shuffle
    * read of one task over the mean read of the tasks that read any. */
  def measure[T](body: => T): (T, TaskTotals) = {
    TrendbenchBus.drain(spark.sparkContext)
    synchronized {
      writeBytes = 0; readBytes = 0; records = 0; cpuNs = 0; gcMs = 0; tasks = 0
      recordsPerReader.clear()
    }
    val r = body
    TrendbenchBus.drain(spark.sparkContext)
    synchronized {
      val skew = if (recordsPerReader.isEmpty) 0.0
                 else recordsPerReader.max.toDouble / (recordsPerReader.sum.toDouble / recordsPerReader.size)
      (r, TaskTotals(writeBytes, readBytes, records, cpuNs / 1e9, gcMs, tasks, skew))
    }
  }

  def detach(): Unit = spark.sparkContext.removeSparkListener(this)
}

object SparkProbe {
  /** Per-operation medians of task totals. */
  def report(m: Metrics, ts: Seq[TaskTotals]): Unit = {
    def med(f: TaskTotals => Double): Double = Stats.median(ts.map(f))
    m.lower("spark.shuffle_write_bytes", med(_.shuffleWriteBytes.toDouble), "B")
    m.lower("spark.shuffle_read_bytes", med(_.shuffleReadBytes.toDouble), "B")
    m.lower("spark.shuffle_records", med(_.shuffleRecords.toDouble), "count")
    m.lower("spark.executor_cpu_s", med(_.executorCpuS), "s")
    m.lower("spark.gc_ms", med(_.gcMs.toDouble), "ms")
    m.lower("spark.tasks", med(_.tasks.toDouble), "count")
    m.lower("spark.task_skew", med(_.taskSkew), "ratio")
  }
}
