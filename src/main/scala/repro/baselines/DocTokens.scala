package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Corpus, TextPrep}

/** Document serialization for the baseline methods.
  *
  * Tables are serialized per the paper (§V-A "Matching results"): every
  * tuple becomes a token sequence `[COL] attr [VAL] v1 v2 …` — rendered
  * here as plain `col`/`val` marker tokens around preprocessed cell
  * terms. Text documents are the concatenation of their sentence terms.
  */
object DocTokens {

  /** `(docId, tokens: Array[String])` per document. */
  def of(spark: SparkSession, corpus: Corpus, markers: Boolean = true): DataFrame = {
    val termsUdf = udf((s: String) => TextPrep.terms1(s))
    val isTable  = corpus.isTable
    val withTerms = corpus.units
      .withColumn("terms", termsUdf(col("unit")))
    val unitTokens =
      if (isTable && markers)
        withTerms.withColumn(
          "toks",
          concat(array(lit("colmark"), col("attr"), lit("valmark")), col("terms")))
      else withTerms.withColumn("toks", col("terms"))
    unitTokens
      .groupBy("docId")
      .agg(flatten(collect_list(col("toks"))).as("tokens"))
  }

  /** Collected map form for driver-side feature computation. */
  def map(spark: SparkSession, corpus: Corpus, markers: Boolean = true): Map[String, Seq[String]] =
    of(spark, corpus, markers).collect()
      .map(r => r.getString(0) -> r.getSeq[String](1).toSeq).toMap
}
