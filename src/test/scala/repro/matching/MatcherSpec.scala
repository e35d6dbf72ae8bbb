package repro.matching

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.embed.Embeddings

class MatcherSpec extends SparkSpec {

  private def vs(rows: (String, Seq[Float])*): Seq[(String, Array[Float])] =
    rows.map { case (id, v) => id -> v.toArray }

  private val queries = vs("q1" -> Seq(1f, 0f), "q2" -> Seq(0f, 1f))
  private val cands = vs(
    "c1" -> Seq(1f, 0f),      // = q1
    "c2" -> Seq(0.7f, 0.7f),  // diagonal
    "c3" -> Seq(0f, 1f))      // = q2

  test("topK ranks the identical vector first") {
    val r = Matcher.topK(spark, queries, cands, 3).collect()
      .map(x => (x.getString(0), x.getString(1), x.getInt(3)))
    assert(r.contains(("q1", "c1", 1)))
    assert(r.contains(("q2", "c3", 1)))
  }
  test("topK respects k") {
    assert(Matcher.topK(spark, queries, cands, 2).groupBy("queryId").count()
      .collect().forall(_.getLong(1) == 2))
  }
  test("topK similarity values are cosine") {
    val r = Matcher.topK(spark, queries, cands, 3)
      .where(col("queryId") === "q1" && col("candId") === "c2")
      .head().getDouble(2)
    assert(math.abs(r - math.cos(math.Pi / 4)) < 1e-6)
  }
  test("topK ranks densely from 1") {
    val r = Matcher.topK(spark, queries, cands, 3)
      .where(col("queryId") === "q1").collect().map(_.getInt(3)).sorted
    assert(r.toSeq == Seq(1, 2, 3))
  }
  test("topK deterministic tie-break by candidate id") {
    val c = vs("cb" -> Seq(1f, 0f), "ca" -> Seq(1f, 0f))
    val r = Matcher.topK(spark, vs("q" -> Seq(1f, 0f)), c, 2).collect()
      .sortBy(_.getInt(3)).map(_.getString(1))
    assert(r.toSeq == Seq("ca", "cb"))
  }
  test("zero-vector query gets sim 0 but still ranks k candidates") {
    val r = Matcher.topK(spark, vs("q" -> Seq(0f, 0f)), cands, 2).collect()
    assert(r.length == 2 && r.forall(_.getDouble(2) == 0.0))
  }
  test("withVectors backfills missing ids with zero vectors") {
    val e = Matcher.withVectors(Seq("a", "b"), Map("a" -> Array(1f, 1f)), 2, identity)
    val m = e.map { case (id, v) => id -> v.toSeq }.toMap
    assert(m("b") == Seq(0f, 0f) && m("a") == Seq(1f, 1f))
  }
  test("allScores emits the full matrix") {
    assert(Matcher.allScores(spark, queries, cands).count() == 6)
  }
  test("averageScores averages and re-ranks") {
    import spark.implicits._
    val a = Seq(("q", "c1", 1.0), ("q", "c2", 0.0)).toDF("queryId", "candId", "sim")
    val b = Seq(("q", "c1", 0.0), ("q", "c2", 0.8)).toDF("queryId", "candId", "sim")
    val avg = Matcher.averageScores(a, b, 2).collect()
      .map(r => (r.getString(1), r.getDouble(2), r.getInt(3))).sortBy(_._3)
    assert(avg(0) == ("c1", 0.5, 1))
    assert(avg(1) == ("c2", 0.4, 2))
  }
  test("averageScores handles one-sided pairs via outer join") {
    import spark.implicits._
    val a = Seq(("q", "c1", 1.0)).toDF("queryId", "candId", "sim")
    val b = Seq(("q", "c2", 0.9)).toDF("queryId", "candId", "sim")
    val avg = Matcher.averageScores(a, b, 2).collect()
      .map(r => (r.getString(1), r.getDouble(2))).toMap
    assert(avg("c1") == 0.5 && avg("c2") == 0.45)
  }
  test("topK agrees with brute-force computation") {
    val r = Matcher.topK(spark, queries, cands, 3).collect()
      .map(x => ((x.getString(0), x.getString(1)), x.getDouble(2))).toMap
    def cos(a: Seq[Float], b: Seq[Float]): Double = {
      val dot = a.zip(b).map { case (x, y) => x * y }.sum
      val na = math.sqrt(a.map(x => x * x).sum); val nb = math.sqrt(b.map(x => x * x).sum)
      if (na == 0 || nb == 0) 0 else dot / (na * nb)
    }
    for ((q, qv) <- queries; (c, cv) <- cands)
      assert(math.abs(r((q, c)) - cos(qv.toSeq, cv.toSeq)) < 1e-6)
  }

  test("topK equals a brute-force cosine ranking, ties and zero vectors included") {
    // Components in {-1, -0.5, 0, 0.5, 1} give exact ties; ids are shuffled
    // so that input order is not id order.
    val rnd = new scala.util.Random(7)
    def quantised(dim: Int) = Array.fill(dim)((rnd.nextInt(5) - 2) / 2f)
    val qs = (0 until 40).map(i => f"q$i%02d" -> (if (i == 3) new Array[Float](8) else quantised(8)))
    val vecs = Vector.tabulate(300)(i => if (i == 5) new Array[Float](8) else quantised(8))
    // Every tenth candidate repeats the vector of the one before it.
    val cs = rnd.shuffle((0 until 300).toVector).map(i => f"c$i%03d").zipWithIndex
      .map { case (id, i) => id -> vecs(if (i % 10 == 9) i - 1 else i) }
    for (k <- Seq(1, 20, 300, 400)) {
      val got = Matcher.topK(spark, qs, cs, k).collect()
        .map(r => (r.getString(0), r.getString(1), r.getDouble(2), r.getInt(3)))
        .sortBy(r => (r._1, r._4)).toSeq
      val want = qs.flatMap { case (q, qv) =>
        cs.map { case (c, cv) => (c, Embeddings.cosine(qv, cv)) }
          .sortBy { case (c, s) => (-s, c) }.take(k)
          .zipWithIndex.map { case ((c, s), i) => (q, c, s, i + 1) }
      }
      assert(got == want, s"k = $k")
    }
    // Some sims are equal, so the candId tie-break is exercised.
    val sims = qs.take(1).flatMap { case (_, qv) => cs.map(c => Embeddings.cosine(qv, c._2)) }
    assert(sims.distinct.size < sims.size)
  }
}
