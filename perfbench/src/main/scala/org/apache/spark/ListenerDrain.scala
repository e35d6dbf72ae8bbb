package org.apache.spark

/** The listener bus delivers events asynchronously; a layer's counters are
  * complete only once the queue is empty. `waitUntilEmpty` is
  * package-private, hence this object's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
