package perfbench

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter}
import javax.management.openmbean.CompositeData
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

final case class Snap(jobs: Long, tasks: Long, shuffleBytes: Long) {
  def -(o: Snap): Snap = Snap(jobs - o.jobs, tasks - o.tasks, shuffleBytes - o.shuffleBytes)
  def +(o: Snap): Snap = Snap(jobs + o.jobs, tasks + o.tasks, shuffleBytes + o.shuffleBytes)
}

/** Counts Spark jobs, tasks and shuffle bytes written, for per-layer deltas. */
final class JobCounter extends SparkListener {
  val jobs = new AtomicLong
  val tasks = new AtomicLong
  val shuffleBytes = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
  }

  def snap(spark: SparkSession): Snap = {
    ListenerDrain(spark.sparkContext)
    Snap(jobs.get, tasks.get, shuffleBytes.get)
  }
}

object Harness {
  val ShufflePartitions = 4
  val BroadcastThreshold = -1L

  /** A session built as `repro.jobs.JobSession` builds it (broadcast
    * joins off, shuffle partitions as `SPARK_SHUFFLE_PARTITIONS` sets
    * them), with 4 shuffle partitions instead of the default 64: at 64 a
    * warm `audit-msp` run took 44 s instead of 19 s on a 4-core VM, the
    * difference all per-task overhead.
    */
  def session(master: String): SparkSession = {
    val s = SparkSession.builder()
      .master(master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", BroadcastThreshold)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, seconds(t0))
  }

  /** Times `f` over and over for `secs` seconds, and at least `min` times. */
  def repeatFor(secs: Double, min: Int)(f: => Any): Seq[Double] = {
    val deadline = System.nanoTime() + (secs * 1e9).toLong
    val times = Seq.newBuilder[Double]
    var n = 0
    while (n < min || System.nanoTime() < deadline) { times += timed(f)._2; n += 1 }
    times.result()
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  private def heapPoolNames = heapPools.map(_.getName).toSet

  private val afterGcPeak = new AtomicLong

  /** Records the heap in use after every collection, from GC notifications. */
  private lazy val gcWatch: Unit = {
    val pools = heapPoolNames
    ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter =>
        e.addNotificationListener((n: Notification, _: AnyRef) =>
          if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
            val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
            val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
              .collect { case (pool, u) if pools(pool) => u.getUsed }.sum
            afterGcPeak.accumulateAndGet(used, math.max)
          }, null, null)
      case _ =>
    }
  }

  /** Collects garbage, then restarts peak tracking. */
  def resetHeapPeak(): Unit = {
    gcWatch
    System.gc()
    heapPools.foreach(_.resetPeakUsage())
    afterGcPeak.set(0)
  }

  /** Sum of the heap pools' peak used bytes since the last reset, in MB. */
  def heapPoolPeaksMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  /** Peak heap in use after a collection since the last reset, in MB: the
    * live data plus what survived, without the garbage in between
    * collections that makes pool peaks track the young generation's size.
    * Falls back to the heap after the last collection when none ran.
    */
  def heapAfterGcPeakMb: Double = {
    val peak = afterGcPeak.get
    val bytes =
      if (peak > 0) peak
      else heapPools.flatMap(p => Option(p.getCollectionUsage)).map(_.getUsed).sum
    bytes / (1024.0 * 1024.0)
  }

  /** CPU time the hypervisor gave to other guests so far, summed over
    * cores, in seconds; 0 where `/proc/stat` is missing. A run that reads
    * slow next to a jump here was slowed by the machine, not the code.
    */
  def stealSeconds: Double = {
    val stat = java.nio.file.Paths.get("/proc/stat")
    if (!java.nio.file.Files.isReadable(stat)) 0.0
    else {
      val cpu = java.nio.file.Files.readAllLines(stat).asScala.head.trim.split("\\s+")
      if (cpu.length > 8) cpu(8).toDouble / 100 else 0.0 // USER_HZ ticks
    }
  }

  /** Total collector time so far, in seconds. */
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1000.0

  /** Seconds between JVM start and now. */
  def sinceJvmStart: Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1000.0
}
