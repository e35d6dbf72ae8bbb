package repro.walk

import repro.SparkSpec
import repro.core.{Graph, Kind}

class RandomWalksSpec extends SparkSpec {

  private def triangle: Graph = {
    import spark.implicits._
    val nodes = Seq("a", "b", "c").map((_, Kind.Term)).toDF("id", "kind")
    val edges = Seq(("a", "b"), ("b", "c"), ("a", "c")).toDF("src", "dst")
    Graph(nodes, Graph.canonEdges(edges)).persist()
  }

  private def withIsolated: Graph = {
    import spark.implicits._
    val nodes = Seq("a", "b", "lone").map((_, Kind.Term)).toDF("id", "kind")
    val edges = Seq(("a", "b")).toDF("src", "dst")
    Graph(nodes, Graph.canonEdges(edges))
  }

  test("walk count is n per node") {
    val w = RandomWalks.walks(spark, triangle, n = 4, l = 5)
    assert(w.count() == 12)
  }
  test("walks have requested length on connected graphs") {
    val w = RandomWalks.walks(spark, triangle, n = 2, l = 6).collect()
    assert(w.forall(_.getSeq[String](0).size == 6))
  }
  test("every node starts its own walks") {
    val w = RandomWalks.walks(spark, triangle, n = 1, l = 3).collect()
      .map(_.getSeq[String](0).head).toSet
    assert(w == Set("a", "b", "c"))
  }
  test("consecutive walk steps follow edges") {
    val adj = Map("a" -> Set("b", "c"), "b" -> Set("a", "c"), "c" -> Set("a", "b"))
    val w = RandomWalks.walks(spark, triangle, n = 3, l = 8).collect()
    w.foreach { r =>
      val s = r.getSeq[String](0)
      s.sliding(2).foreach { p =>
        if (p.size == 2) assert(adj(p.head).contains(p(1)), s"step $p")
      }
    }
  }
  test("isolated nodes yield length-1 walks") {
    val w = RandomWalks.walks(spark, withIsolated, n = 2, l = 5).collect()
      .map(_.getSeq[String](0))
    val lone = w.filter(_.head == "lone")
    assert(lone.size == 2 && lone.forall(_ == Seq("lone")))
  }
  test("walks are deterministic in seed") {
    def sig(seed: Long) = RandomWalks.walks(spark, triangle, 2, 6, seed)
      .collect().map(_.getSeq[String](0).mkString(",")).sorted.mkString(";")
    assert(sig(7) == sig(7))
  }
  test("different seeds give different walks") {
    def sig(seed: Long) = RandomWalks.walks(spark, triangle, 4, 10, seed)
      .collect().map(_.getSeq[String](0).mkString(",")).sorted.mkString(";")
    assert(sig(7) != sig(8))
  }
  test("long walks survive lineage checkpointing (l=30)") {
    val w = RandomWalks.walks(spark, triangle, n = 1, l = 30)
    assert(w.collect().forall(_.getSeq[String](0).size == 30))
  }

  /** 1,200 nodes: a 1,150-node ring with random chords, plus 50 isolated nodes. */
  private def generated: Graph = {
    import spark.implicits._
    val rnd = new scala.util.Random(3)
    val ids = (0 until 1200).map(i => f"n$i%04d")
    val nodes = ids.map((_, Kind.Term)).toDF("id", "kind")
    val ring = (0 until 1150).map(i => (ids(i), ids((i + 1) % 1150)))
    val chords = Seq.fill(800)((ids(rnd.nextInt(1150)), ids(rnd.nextInt(1150))))
    Graph(nodes, Graph.canonEdges((ring ++ chords).toDF("src", "dst")))
  }

  test("walks are identical in content and order for any partitioning") {
    val g = generated
    def run(parts: Int) = RandomWalks.walks(
      spark, Graph(g.nodes.repartition(parts), g.edges.repartition(parts)), n = 3, l = 8, seed = 42)
      .collect().map(_.getSeq[String](0).mkString(","))
    val one = run(1)
    assert(one.length == 3600)
    assert(one.sameElements(run(7)))
  }
}
