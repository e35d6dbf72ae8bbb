package repro.compress

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.core.Graph

/** Compact CSR adjacency of a [[repro.core.Graph]], the in-memory graph
  * core of the pipeline: random walks, sink pruning, MSP and SSuM all run
  * on it, and it alone converts between a `Graph` and its CSR form
  * ([[LocalGraph.fromGraph]], [[toGraph]]). Spark tasks share it as a
  * broadcast. Graphs at evaluation scale (≤ a few hundred thousand edges)
  * fit easily; the paper itself ran on an 8 GB laptop.
  *
  * Node `i` has id `labels(i)` and kind `kinds(i)`; labels are sorted, so
  * index order is label order.
  */
final class LocalGraph(
    val labels: Array[String],
    val kinds: Array[String],
    val offsets: Array[Int],
    val neighbors: Array[Int]) extends Serializable {

  val index: Map[String, Int] = labels.zipWithIndex.toMap
  def numNodes: Int = labels.length
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  def neighborsOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(v), offsets(v + 1))

  /** Every edge once, as `(u, v)` with `u < v`. */
  def edges: Iterator[(Int, Int)] =
    Iterator.range(0, numNodes).flatMap { u =>
      Iterator.range(offsets(u), offsets(u + 1)).map(neighbors).filter(u < _).map((u, _))
    }

  /** Uniform random walk of `length` (at least 1) nodes from `start`
    * (paper Algorithm 4): each step moves to a uniformly random neighbour.
    * A walk from an isolated node stops at its first node.
    */
  def walk(start: Int, length: Int, rnd: SplittableRandom): Array[Int] = {
    if (degree(start) == 0) return Array(start)
    val out = new Array[Int](math.max(length, 1))
    out(0) = start
    var i = 1
    while (i < length) {
      val u = out(i - 1)
      out(i) = neighbors(offsets(u) + rnd.nextInt(degree(u)))
      i += 1
    }
    out
  }

  /** BFS distances from `src`; -1 for unreachable nodes. */
  def bfs(src: Int): Array[Int] = {
    val dist = Array.fill(numNodes)(-1)
    dist(src) = 0
    val q = new java.util.ArrayDeque[Int]()
    q.add(src)
    while (!q.isEmpty) {
      val u = q.poll()
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = neighbors(i)
        if (dist(v) == -1) { dist(v) = dist(u) + 1; q.add(v) }
        i += 1
      }
    }
    dist
  }

  /** Union of all shortest paths from `src` (whose BFS `dist` is given)
    * to `target`: returns (nodes, edges) of the shortest-path DAG slice,
    * via backward traversal (a node u at dist d-1 adjacent to a kept node
    * v at dist d lies on some shortest path to v).
    * Empty when `target` is unreachable.
    */
  def shortestPathSlice(dist: Array[Int], target: Int): (Set[Int], Set[(Int, Int)]) = {
    if (dist(target) < 0) return (Set.empty, Set.empty)
    val nodesKept = scala.collection.mutable.Set(target)
    val edgesKept = scala.collection.mutable.Set.empty[(Int, Int)]
    var frontier  = List(target)
    while (frontier.nonEmpty) {
      val next = scala.collection.mutable.ListBuffer.empty[Int]
      for (v <- frontier) {
        val dv = dist(v)
        var i = offsets(v)
        while (i < offsets(v + 1)) {
          val u = neighbors(i)
          if (dist(u) == dv - 1) {
            edgesKept += ((math.min(u, v), math.max(u, v)))
            if (!nodesKept.contains(u)) { nodesKept += u; next += u }
          }
          i += 1
        }
      }
      frontier = next.toList
    }
    (nodesKept.toSet, edgesKept.toSet)
  }

  /** The `Graph` of the (distinct) nodes in `keep`, with their kinds, and
    * the distinct `edges` (index pairs) whose endpoints are both kept.
    * Labels are sorted, so `(min, max)` of an index pair is already
    * `src < dst`.
    */
  def toGraph(spark: SparkSession, keep: Iterable[Int], edges: IterableOnce[(Int, Int)]): Graph = {
    import spark.implicits._
    val kept = new java.util.BitSet(numNodes)
    keep.foreach(kept.set)
    val nodesDf = keep.toSeq.map(i => (labels(i), kinds(i))).toDF("id", "kind")
    val edgesDf = edges.iterator
      .collect { case (a, b) if kept.get(a) && kept.get(b) => (math.min(a, b), math.max(a, b)) }
      .toSeq.distinct
      .map { case (a, b) => (labels(a), labels(b)) }
      .toDF("src", "dst")
    Graph(nodesDf, edgesDf)
  }
}

object LocalGraph {
  /** Collect a Spark graph into CSR form. Nodes are in sorted label order
    * and each neighbour list in sorted edge order, so the structure
    * depends only on the graph, not on how its DataFrames are partitioned.
    * Edges with an endpoint outside `g.nodes` are dropped.
    */
  def fromGraph(g: Graph): LocalGraph = {
    val nodes  = g.nodes.select("id", "kind").collect().map(r => (r.getString(0), r.getString(1))).sortBy(_._1)
    val labels = nodes.map(_._1)
    val index  = labels.zipWithIndex.toMap
    val edges = g.edges.select("src", "dst").collect()
      .flatMap { r =>
        for (s <- index.get(r.getString(0)); d <- index.get(r.getString(1))) yield s.toLong << 32 | d
      }
      .sorted
      .map(e => ((e >>> 32).toInt, e.toInt))
    val deg = Array.fill(labels.length)(0)
    edges.foreach { case (s, d) => deg(s) += 1; deg(d) += 1 }
    val offsets = new Array[Int](labels.length + 1)
    var i = 0
    while (i < labels.length) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor    = offsets.clone()
    val neighbors = new Array[Int](edges.length * 2)
    edges.foreach { case (s, d) =>
      neighbors(cursor(s)) = d; cursor(s) += 1
      neighbors(cursor(d)) = s; cursor(d) += 1
    }
    new LocalGraph(labels, nodes.map(_._2), offsets, neighbors)
  }
}
