package repro.bench

import org.apache.spark.sql.SparkSession

/** Shared bootstrap for the spark-submit entrypoints in jobs/. */
object JobSupport {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Parse "100,200,400" into scale points, with a default. */
  def longs(args: Array[String], default: Seq[Long]): Seq[Long] =
    if (args.isEmpty) default else args(0).split(",").toSeq.map(_.trim.toLong)

  def ints(args: Array[String], default: Seq[Int]): Seq[Int] =
    if (args.isEmpty) default else args(0).split(",").toSeq.map(_.trim.toInt)

  def doubles(args: Array[String], default: Seq[Double]): Seq[Double] =
    if (args.isEmpty) default else args(0).split(",").toSeq.map(_.trim.toDouble)
}
