package repro.walk

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.compress.LocalGraph
import repro.core.Graph

/** Random-walk corpus generation (paper Algorithm 4).
  *
  * `n` walks of length `l` start from every graph node; each step moves to
  * a uniformly random neighbor. Every walk becomes one "sentence" whose
  * words are node labels; the union of sentences is the Word2Vec training
  * corpus.
  *
  * Walks run in Spark tasks over node ranges against a broadcast
  * [[LocalGraph]]. Each walk draws from its own RNG, seeded from
  * `(seed, node, walk)`, so the sentences and their order depend only on
  * the graph and `seed`, not on partitioning or thread count.
  */
object RandomWalks {

  /** Returns a DataFrame `(sentence: Array[String])` with `n · |V|` rows,
    * ordered by start node (label order), then walk number.
    */
  def walks(spark: SparkSession, g: Graph, n: Int, l: Int, seed: Long = 13): DataFrame = {
    import spark.implicits._
    val lg = LocalGraph.fromGraph(g)
    val bc = spark.sparkContext.broadcast(lg)
    val base = new SplittableRandom(seed).nextLong()
    spark.sparkContext
      .parallelize(0 until lg.numNodes)
      .flatMap { v =>
        val graph = bc.value
        Iterator.tabulate(n) { w =>
          // `v << 32 | w` is unique per walk; `base` is a hash of `seed`.
          val rnd = new SplittableRandom(base ^ (v.toLong << 32 | w))
          graph.walk(v, l, rnd).map(graph.labels)
        }
      }
      .toDF("sentence")
  }
}
