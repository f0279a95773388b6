package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * that a listener's totals cover the jobs that just finished. The listener
  * bus is internal to Spark, hence this package. */
object TrendbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
