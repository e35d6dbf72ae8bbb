package repro.matching

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.embed.Embeddings

/** Unsupervised metadata-node matching (paper §IV-B).
  *
  * Given `(id, vector)` pairs for query documents and candidate documents,
  * computes the exact cosine top-k candidates per query locally, with no
  * Spark job: every candidate is scored (each norm computed once) and a
  * bounded heap keeps the best k, in the manner of exact inner-product
  * search (FAISS, Johnson, Douze & Jégou 2019). Output: `(queryId, candId,
  * sim, rank)` with rank 1 = most similar, ties broken by candidate id.
  */
object Matcher {

  /** `(id, vector)` for each id, the vector looked up under `key(id)`; ids
    * without a vector get the zero vector (every cosine 0, so they still
    * rank their candidates, by candidate id).
    */
  def withVectors(
      ids: Seq[String],
      vectors: Map[String, Array[Float]],
      dim: Int,
      key: String => String): Seq[(String, Array[Float])] = {
    val zero = new Array[Float](dim)
    ids.map(id => id -> vectors.getOrElse(key(id), zero))
  }

  /** Scores every candidate against each query and hands `emit` the query
    * id, the candidate ids sorted, and the cosine of each (a buffer reused
    * across queries).
    */
  private def score(
      queries: Seq[(String, Array[Float])],
      candidates: Seq[(String, Array[Float])])(
      emit: (String, Array[String], Array[Double]) => Unit): Unit = {
    val sorted = candidates.sortBy(_._1)
    val cIds   = sorted.map(_._1).toArray
    val cVecs  = sorted.map(_._2).toArray
    val cNorms = cVecs.map(Embeddings.sqNorm)
    val sims   = new Array[Double](cIds.length)
    queries.foreach { case (q, qv) =>
      val qNorm = Embeddings.sqNorm(qv)
      var j = 0
      while (j < sims.length) {
        sims(j) = Embeddings.cosine(Embeddings.dot(qv, cVecs(j)), qNorm, cNorms(j))
        j += 1
      }
      emit(q, cIds, sims)
    }
  }

  /** Top-k most similar candidates per query by cosine similarity, ordered
    * by `(sim desc, candId asc)`; `rank` runs 1..min(k, #candidates).
    */
  def topK(
      spark: SparkSession,
      queries: Seq[(String, Array[Float])],
      candidates: Seq[(String, Array[Float])],
      k: Int): DataFrame = {
    import spark.implicits._
    val rows = Seq.newBuilder[(String, String, Double, Int)]
    score(queries, candidates) { (q, cIds, sims) =>
      // Candidate indices follow candId order, so the index breaks ties;
      // the heap's head is the worst candidate kept.
      val worseFirst: java.util.Comparator[Int] = (i, j) => {
        val c = java.lang.Double.compare(sims(i), sims(j))
        if (c != 0) c else Integer.compare(j, i)
      }
      val heap = new java.util.PriorityQueue[Int](worseFirst)
      var j = 0
      while (j < sims.length) {
        heap.add(j)
        if (heap.size > k) heap.poll()
        j += 1
      }
      val best = Array.fill(heap.size)(heap.poll()).reverse
      best.iterator.zipWithIndex.foreach { case (i, r) => rows += ((q, cIds(i), sims(i), r + 1)) }
    }
    rows.result().toDF("queryId", "candId", "sim", "rank")
  }

  /** Average two score sets (paper §V-F2: combining our cosine scores
    * with SentenceBERT's improves all scenarios). Both inputs must be
    * full score matrices `(queryId, candId, sim)`.
    */
  def averageScores(a: DataFrame, b: DataFrame, k: Int): DataFrame = {
    val joined = a.select(col("queryId"), col("candId"), col("sim").as("simA"))
      .join(b.select(col("queryId"), col("candId"), col("sim").as("simB")),
        Seq("queryId", "candId"), "outer")
      .withColumn("sim",
        (coalesce(col("simA"), lit(0.0)) + coalesce(col("simB"), lit(0.0))) / 2.0)
    val w = Window.partitionBy("queryId").orderBy(col("sim").desc, col("candId").asc)
    joined
      .withColumn("rank", row_number().over(w))
      .where(col("rank") <= k)
      .select("queryId", "candId", "sim", "rank")
  }

  /** Full score matrix `(queryId, candId, sim)` (no top-k cut) — input to
    * [[averageScores]].
    */
  def allScores(
      spark: SparkSession,
      queries: Seq[(String, Array[Float])],
      candidates: Seq[(String, Array[Float])]): DataFrame = {
    import spark.implicits._
    val rows = Seq.newBuilder[(String, String, Double)]
    score(queries, candidates) { (q, cIds, sims) =>
      var j = 0
      while (j < sims.length) { rows += ((q, cIds(j), sims(j))); j += 1 }
    }
    rows.result().toDF("queryId", "candId", "sim")
  }
}
