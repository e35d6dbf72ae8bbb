package repro.embed

import org.apache.spark.mllib.feature.Word2Vec
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Word-embedding training over walk sentences (paper Algorithm 4, last
  * step) and over plain text corpora (for the W2VEC/D2VEC baselines).
  *
  * Uses Spark MLlib's Word2Vec (skip-gram with hierarchical softmax).
  * The paper uses skip-gram (window 3) for text-to-data and CBOW
  * (window 15) for text tasks; MLlib has no CBOW, so all tasks run
  * skip-gram with the paper's window sizes (documented in DESIGN.md).
  */
object Embeddings {

  final case class Config(
      vectorSize: Int = 64,
      window: Int = 3,
      minCount: Int = 1,
      iterations: Int = 1,
      seed: Long = 17)

  /** Train on a DataFrame with a `sentence: Array[String]` column and
    * return the full vocabulary map `label → vector`.
    */
  def train(spark: SparkSession, sentences: DataFrame, cfg: Config = Config()): Map[String, Array[Float]] = {
    val rdd = sentences.select("sentence").rdd
      .map(_.getSeq[String](0).toIterable)
      .filter(_.nonEmpty)
    val w2v = new Word2Vec()
      .setVectorSize(cfg.vectorSize)
      .setWindowSize(cfg.window)
      .setMinCount(cfg.minCount)
      .setNumIterations(cfg.iterations)
      .setSeed(cfg.seed)
      .setNumPartitions(math.max(1, spark.sparkContext.defaultParallelism / 2))
    w2v.fit(rdd).getVectors
  }

  /** `Σ a(i)·b(i)` over the indices of `a`: each `Float` product is widened
    * to `Double` and summed in index order.
    */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Squared L2 norm, with the same arithmetic as [[dot]]. */
  def sqNorm(a: Array[Float]): Double = dot(a, a)

  /** Cosine from a dot product and the two squared norms; 0 when either
    * norm is 0. Callers that score one vector against many compute each
    * norm once and get the same value as `cosine(a, b)`.
    */
  def cosine(dot: Double, na: Double, nb: Double): Double =
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)

  def cosine(a: Array[Float], b: Array[Float]): Double =
    cosine(dot(a, b), sqNorm(a), sqNorm(b))

  /** Mean of token vectors — document embedding for baselines (the paper
    * aggregates word vectors for longer texts by averaging [38]).
    * Tokens absent from `vectors` are skipped; all-OOV docs map to the
    * zero vector.
    */
  def meanVector(tokens: Seq[String], vectors: Map[String, Array[Float]], dim: Int): Array[Float] = {
    val present = tokens.flatMap(vectors.get)
    val out = new Array[Float](dim)
    if (present.isEmpty) return out
    present.foreach { v => var i = 0; while (i < dim) { out(i) += v(i); i += 1 } }
    var i = 0
    while (i < dim) { out(i) /= present.size; i += 1 }
    out
  }
}
