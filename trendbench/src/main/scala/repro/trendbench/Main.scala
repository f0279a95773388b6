package repro.trendbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.util.control.NonFatal

/** Entry point of one benchmark run, one JVM:
  * `--workload <agg_hot|batch_sliding|stream_update> --seed <n>
  *  --seconds <s> --trace <0|1> --declared <BENCHMARK.json> --work <dir>`.
  *
  * The last line of standard output is the result:
  * `correct`, `attempted`, `failed` and `metrics` (the declared end-to-end
  * metrics untraced, the declared per-layer metrics traced). The line before
  * it holds the machine record and the correctness details; both are also
  * written to `<work>/results/`, and a traced run writes its spans to
  * `<work>/trace/`.
  */
object Main {
  val workloads: Seq[String] = Seq("agg_hot", "batch_sliding", "stream_update")

  /** Per-layer metric prefixes of layers a workload does not run; they
    * report zero work. */
  private val notRun: Map[String, Seq[String]] = Map(
    "agg_hot" -> Seq("batch.", "spark.", "stream.", "state."),
    "batch_sliding" -> Seq("core.", "baselines.", "speedup_vs_greta", "stream.", "state."),
    "stream_update" -> Seq("core.", "baselines.", "speedup_vs_greta", "batch."))

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        declared: Path, work: Path)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(get("workload"), get("seed").toLong, get("seconds").toDouble,
                 get("trace") match { case "0" => false; case "1" => true },
                 Paths.get(get("declared")), Paths.get(get("work")))
    require(workloads.contains(o.workload), s"unknown workload ${o.workload}")
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  def main(args: Array[String]): Unit = {
    val code = try run(parse(args)) catch {
      case NonFatal(e) => e.printStackTrace(); 1
    }
    sys.exit(code)
  }

  /** Spark for the Spark workloads: `local[2]` at most, so that JIT, GC and
    * other tenants keep a core, and a small multiple of that in shuffle
    * partitions. Scratch space stays under the work directory. */
  val cores: Int = math.min(2, Machine.nproc)
  val shufflePartitions: Int = 2 * cores

  private def session(work: Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("trendbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .config("spark.sql.streaming.numRecentProgressUpdates", 10000)
      .getOrCreate()

  def run(o: Opts): Int = {
    val declared = Declared.load(o.declared).forTrace(o.trace)
    val runId = s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    val scratch = o.work.resolve(s"run-$runId-${ProcessHandle.current().pid()}")
    Files.createDirectories(scratch)
    val ctx = Ctx(o.seed, o.seconds, o.trace, scratch, new Tally, new Tracer(o.trace, runId), new Metrics)
    val before = Machine.sample()
    ctx.log(s"${o.workload}: seed ${o.seed}, ${o.seconds} s, trace ${o.trace}")
    var spark: Option[SparkSession] = None
    def startSpark(): SparkSession = spark.getOrElse {
      spark = Some(session(scratch))
      ctx.log("Spark started")
      spark.get
    }
    try o.workload match {
      case "agg_hot" => AggHot.run(ctx)
      case "batch_sliding" => BatchSliding.run(ctx, () => startSpark())
      case "stream_update" => StreamUpdate.run(ctx, () => startSpark())
    } finally {
      spark.foreach(_.stop())
      deleteTree(scratch)
    }
    if (o.trace) ctx.tracer.write(o.work.resolve("trace").resolve(s"${ctx.tracer.run}.jsonl"))
    val after = Machine.sample()

    if (o.trace) {
      for (d <- declared if !ctx.metrics.contains(d.name) && notRun(o.workload).exists(d.name.startsWith))
        ctx.metrics.put(d.name, 0.0, d.unit, d.better)
      ctx.metrics.higher("trace.spans", ctx.tracer.all.size.toDouble, "count")
      ctx.metrics.lower("check.saturated", ctx.tally.saturated.toDouble, "count")
    }
    val problems = ctx.metrics.mismatches(declared)
    if (problems.nonEmpty) {
      Console.err.println("trendbench: the measured metrics do not match BENCHMARK.json:")
      problems.foreach(p => Console.err.println(s"  $p"))
      return 3
    }

    val json = new ObjectMapper()
    val record = new java.util.LinkedHashMap[String, Object]()
    record.put("workload", o.workload)
    record.put("trace", Boolean.box(o.trace))
    record.put("seconds", Double.box(o.seconds))
    record.put("machine", Machine.record(before, after, o.seed,
      spark.map(_ => s"local[$cores]").getOrElse("none"), shufflePartitions))
    record.put("saturated", Long.box(ctx.tally.saturated))
    record.put("failures", java.util.List.of(ctx.tally.notes.toSeq: _*))
    val result = new java.util.LinkedHashMap[String, Object]()
    result.put("correct", Boolean.box(ctx.tally.failed == 0 && ctx.tally.attempted > 0))
    result.put("attempted", Long.box(ctx.tally.attempted))
    result.put("failed", Long.box(ctx.tally.failed))
    result.put("metrics", ctx.metrics.toJava)
    val full = new java.util.LinkedHashMap[String, Object](record)
    full.put("result", result)
    val results = o.work.resolve("results")
    Files.createDirectories(results)
    json.writerWithDefaultPrettyPrinter().writeValue(results.resolve(s"$runId.json").toFile, full)

    println("trendbench-record " + json.writeValueAsString(record))
    println(json.writeValueAsString(result))
    0
  }

  /** Delete a directory tree, if it exists. */
  def deleteTree(p: Path): Unit = if (Files.exists(p)) {
    val s = Files.walk(p)
    try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
    finally s.close()
  }
}
