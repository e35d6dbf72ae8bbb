package repro.expand

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.compress.LocalGraph
import repro.core.{Graph, Kind}

/** Graph expansion with an external resource (paper Algorithm 2).
  *
  * For every non-metadata node, fetch all its connections in the resource
  * and add the corresponding nodes (kind `kb`) and edges. Then clean the
  * graph by removing sink nodes: every non-metadata node of degree ≤ 1,
  * whether it came from the graph or from the expansion (e.g.
  * `Bhavna Vaswani` connected only to `Shyamalan`).
  *
  * Expansion is a set of distributed joins over the `nodes`/`edges`/
  * `triples` DataFrames; the cleaning runs on the graph's [[LocalGraph]].
  */
object Expansion {

  /** Expand `g` with `kb`, then drop every non-metadata node of degree ≤ 1
    * ([[removeSinks]]).
    */
  def expand(spark: SparkSession, g: Graph, kb: KnowledgeBase): Graph = {
    val dataNodes = g.nodes.where(!col("kind").isin(Kind.Meta1, Kind.Meta2, Kind.Attr))
      .select(col("id"))

    val t = kb.triples(spark)
    // Triples touching a data node of the graph, in either direction.
    val bySubj = t.join(dataNodes.withColumnRenamed("id", "subject"), "subject")
      .select(col("subject").as("src"), col("object").as("dst"))
    val byObj = t.join(dataNodes.withColumnRenamed("id", "object"), "object")
      .select(col("object").as("src"), col("subject").as("dst"))
    val newEdges = Graph.canonEdges(bySubj.union(byObj))

    val newNodeIds = newEdges.select(col("src").as("id"))
      .union(newEdges.select(col("dst").as("id")))
      .distinct()
      .join(g.nodes.select("id"), Seq("id"), "left_anti")
    val newNodes = newNodeIds.withColumn("kind", lit(Kind.Kb))

    val expanded = Graph(
      g.nodes.union(newNodes),
      Graph.canonEdges(g.edges.union(newEdges)))

    removeSinks(expanded)
  }

  /** Remove degree-≤1 non-metadata nodes (Algorithm 2, cleaning step).
    * One pass, as in the paper; metadata nodes are always kept.
    */
  def removeSinks(g: Graph): Graph = {
    val lg = LocalGraph.fromGraph(g)
    val keep = (0 until lg.numNodes).filter(v => Kind.isMetadata(lg.kinds(v)) || lg.degree(v) > 1)
    lg.toGraph(g.nodes.sparkSession, keep, lg.edges)
  }
}
