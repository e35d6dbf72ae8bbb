package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.Tables
import repro.data.{Scenario, Scenarios}
import repro.pipeline.TDMatch

/** One benchmark workload: a scenario plus the pipeline options it runs.
  *
  * `seed` shifts every scenario seed and the pipeline seed; seed 0 gives
  * the constructors' default seeds and the pipeline seed of
  * `Tables.Default`. The Word2Vec window is the scenario's own.
  */
final case class Workload(
    name: String,
    scenario: (SparkSession, Long) => Scenario,
    useGamma: Boolean,
    expand: Boolean,
    /** MSP compression with this β, or no compression. */
    mspBeta: Option[Double],
    /** Also trace the layers on one core, for per-layer speed-ups. */
    singleThreadBaseline: Boolean = false) {

  def bench(seed: Long): Tables.Bench = Tables.Default.copy(seed = Tables.Default.seed + seed)

  def config(sc: Scenario, merge: Option[DataFrame], seed: Long): TDMatch.Config =
    Tables.cfgFor(sc, merge, expand, bench(seed))
      .copy(compression = mspBeta.fold[TDMatch.Compression](TDMatch.NoCompression)(TDMatch.Msp(_)))

  /** The pipeline layers this workload calls, in order. */
  def layers: Seq[String] = Workloads.Layers.filter {
    case "expand"   => expand
    case "compress" => mspBeta.nonEmpty
    case _          => true
  }
}

object Workloads {
  import Scenarios._

  /** Every layer the traced run can time, in pipeline order. */
  val Layers: Seq[String] = Seq("merge", "build", "expand", "compress", "walk", "embed", "match")

  private val auditDefaults = AuditParams()

  val all: Seq[Workload] = Seq(
    // Structured text: the only taxonomy-hierarchy graph and the only run
    // of expansion and compression; no γ-merge. A small graph, so per-job
    // Spark overhead dominates. The taxonomy is wide and shallow: with the
    // default 5 × up-to-3 children × depth 4, the number of candidate
    // concepts varies by ±30% with the seed and MRR follows it (0.47–0.67
    // over ten seeds); 20 × up-to-2 × depth 3 has as many (about 75) and
    // varies by ±10%.
    Workload("audit-msp",
      (spark, s) => audit(spark, AuditParams(nLevel1 = 20, childrenPerNode = 2, maxDepth = 3,
        nDocs = 250, seed = auditDefaults.seed + s)),
      useGamma = false, expand = true, mspBeta = Some(0.5), singleThreadBaseline = true),
    // Text-to-text with γ-merge, expansion and compression bypassed; the
    // larger graph and corpus, so walks, Word2Vec and matching weigh most.
    Workload("politifact",
      (spark, s) => claims(spark, ClaimsParams(nFacts = 600, nClaims = 150, synProb = 0.55,
        dropProb = 0.3, seed = 778 + s, name = "politifact")),
      useGamma = true, expand = false, mspBeta = None))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
