package repro.bench

import org.apache.spark.sql.SparkSession

/** The one SparkSession bootstrap, for `jobs/Exhibit` and the test suites. */
object JobSupport {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", 64)
      .getOrCreate()
}
