package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Graph creation (paper Algorithm 1 + §II-A/B/C/D).
  *
  * Builds the heterogeneous graph over two corpora:
  *  - metadata nodes for every document of both corpora; attribute nodes
  *    for tables; hierarchy (metadata–metadata) edges for structured text;
  *  - data nodes for the *first* corpus's terms only — terms of the second
  *    corpus that are not already in the graph are filtered out (§II-B);
  *  - optional term-merging map (`variant → canonical`) applied to both
  *    corpora before node/edge creation (§II-C: dictionary, bucketing,
  *    embedding-γ merges; stemming already happens in [[TextPrep]]).
  */
object GraphBuilder {

  final case class Config(
      maxN: Int = 3,
      /** `(variant, canon)` term-rewrite map; empty → no merging. */
      mergeMap: Option[DataFrame] = None,
      /** When true, pick the corpus with fewer distinct tokens as the
        * node-seeding corpus automatically (paper default). The *metadata*
        * prefixes still follow the argument order: corpus A → `m1::`.
        */
      autoOrder: Boolean = true,
  )

  /** Apply a term-merge mapping to a `(docId, attr, term)` DataFrame. */
  private def applyMerge(dt: DataFrame, mergeMap: Option[DataFrame]): DataFrame =
    mergeMap match {
      case None => dt
      case Some(m) =>
        dt.join(m.withColumnRenamed("variant", "term"), Seq("term"), "left")
          .select(
            col("docId"),
            col("attr"),
            coalesce(col("canon"), col("term")).as("term"))
          .distinct()
    }

  /** Build the graph for corpora A and B. Returns the graph plus the
    * retained `(docId, term)` assignments per corpus (useful for tests
    * and baselines).
    */
  def build(spark: SparkSession, a: Corpus, b: Corpus, cfg: Config = Config()): Graph = {
    val dtA = applyMerge(a.docTerms(spark, cfg.maxN), cfg.mergeMap).persist()
    val dtB = applyMerge(b.docTerms(spark, cfg.maxN), cfg.mergeMap).persist()

    // §II-B: data nodes come from the corpus with fewer distinct tokens.
    val aSeeds =
      !cfg.autoOrder || a.distinctTokenCount(spark) <= b.distinctTokenCount(spark)
    val (dtSeed, dtOther) = if (aSeeds) (dtA, dtB) else (dtB, dtA)

    val termNodes = dtSeed.select(col("term").as("id")).distinct()
      .withColumn("kind", lit(Kind.Term))

    // Second corpus keeps only terms already present in the graph.
    val dtOtherKept = dtOther.join(
      termNodes.select(col("id").as("term")), Seq("term"), "left_semi")

    val (dtAKept, dtBKept) = if (aSeeds) (dtSeed, dtOtherKept) else (dtOtherKept, dtSeed)

    def metaNodes(c: Corpus, prefix: String, kind: String): DataFrame = {
      import spark.implicits._
      c.docIds.map(prefix + _).toDF("id").withColumn("kind", lit(kind))
    }

    val meta1 = metaNodes(a, "m1::", Kind.Meta1)
    val meta2 = metaNodes(b, "m2::", Kind.Meta2)

    def attrNodes(c: Corpus): DataFrame =
      c.units.select(col("attr")).where(col("attr").isNotNull).distinct()
        .select(concat(lit("attr::"), col("attr")).as("id"))
        .withColumn("kind", lit(Kind.Attr))

    val attrsA = if (a.isTable) Some(attrNodes(a)) else None
    val attrsB = if (b.isTable) Some(attrNodes(b)) else None

    def docTermEdges(dt: DataFrame, prefix: String): DataFrame =
      dt.select(concat(lit(prefix), col("docId")).as("src"), col("term").as("dst"))

    def attrTermEdges(dt: DataFrame): DataFrame =
      dt.where(col("attr").isNotNull)
        .select(concat(lit("attr::"), col("attr")).as("src"), col("term").as("dst"))

    def hierEdges(c: Corpus, prefix: String): DataFrame =
      c.hierarchy(spark).select(
        concat(lit(prefix), col("child")).as("src"),
        concat(lit(prefix), col("parent")).as("dst"))

    var edges = docTermEdges(dtAKept, "m1::").union(docTermEdges(dtBKept, "m2::"))
    if (a.isTable) edges = edges.union(attrTermEdges(dtAKept))
    if (b.isTable) edges = edges.union(attrTermEdges(dtBKept))
    edges = edges.union(hierEdges(a, "m1::")).union(hierEdges(b, "m2::"))

    val nodes = Seq(Some(termNodes), Some(meta1), Some(meta2), attrsA, attrsB)
      .flatten.reduce(_ union _).distinct()

    Graph(nodes, Graph.canonEdges(edges))
  }
}
