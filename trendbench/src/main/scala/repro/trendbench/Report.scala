package repro.trendbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.nio.file.Path
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** A metric as `BENCHMARK.json` declares it. */
final case class Decl(name: String, unit: String, better: String)

/** The metric declarations of `BENCHMARK.json`: `end_to_end` metrics are
  * printed by untraced runs, `per_layer` metrics by traced runs. */
final case class Declared(endToEnd: Seq[Decl], perLayer: Seq[Decl]) {
  def forTrace(trace: Boolean): Seq[Decl] = if (trace) perLayer else endToEnd
}

object Declared {
  def load(file: Path): Declared = {
    val root = new ObjectMapper().readTree(file.toFile)
    def decls(key: String): Seq[Decl] =
      root.get(key).elements().asScala.map { n =>
        Decl(n.get("name").asText, n.get("unit").asText, n.get("better").asText)
      }.toSeq
    Declared(decls("end_to_end"), decls("per_layer"))
  }
}

/** The metrics one run reports, each with the unit and direction the code
  * that measured it gives; [[Metrics.mismatches]] holds them to the
  * declarations. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, (Double, Decl)]

  def put(name: String, value: Double, unit: String, better: String): Unit = {
    require(!values.contains(name), s"metric $name reported twice")
    values(name) = (value, Decl(name, unit, better))
  }
  def lower(name: String, value: Double, unit: String): Unit = put(name, value, unit, "lower")
  def higher(name: String, value: Double, unit: String): Unit = put(name, value, unit, "higher")

  def contains(name: String): Boolean = values.contains(name)

  def entries: Seq[(Double, Decl)] = values.valuesIterator.toSeq

  /** Everything that keeps these metrics from being exactly the declared
    * set: undeclared or missing names, another unit or direction, and values
    * that are not finite numbers. Empty when the run may be reported. */
  def mismatches(declared: Seq[Decl]): Seq[String] = {
    val byName = declared.map(d => d.name -> d).toMap
    val missing = declared.filterNot(d => values.contains(d.name)).map(d => s"${d.name}: not measured")
    val wrong = values.toSeq.flatMap { case (n, (v, d)) =>
      byName.get(n) match {
        case None => Seq(s"$n: not declared in BENCHMARK.json")
        case Some(want) =>
          (if (want != d) Seq(s"$n: measured as ${d.unit}/${d.better}, declared ${want.unit}/${want.better}")
           else Nil) ++
          (if (!v.isFinite) Seq(s"$n: value $v is not a finite number") else Nil)
      }
    }
    missing ++ wrong
  }

  /** `{"name": {"value": v, "unit": u}, ...}` */
  def toJava: java.util.Map[String, Object] = {
    val m = new java.util.LinkedHashMap[String, Object]()
    values.foreach { case (n, (v, d)) =>
      val e = new java.util.LinkedHashMap[String, Object]()
      e.put("value", java.lang.Double.valueOf(v))
      e.put("unit", d.unit)
      m.put(n, e)
    }
    m
  }
}
