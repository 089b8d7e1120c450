package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Blocks until Spark's listener bus has delivered every posted event, so
  * counters read right after an action include all of its jobs and tasks.
  * Lives in Spark's package because the bus is package-private.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
