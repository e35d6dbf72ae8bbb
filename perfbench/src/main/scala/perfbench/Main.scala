package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, size, sum}
import repro.bench.Tables
import repro.core.{Graph, GraphBuilder, Kind}
import repro.compress.MSP
import repro.data.{Pretrained, Scenario}
import repro.embed.Embeddings
import repro.expand.Expansion
import repro.metrics.RankMetrics
import repro.pipeline.TDMatch
import repro.walk.RandomWalks
import scala.collection.mutable

/** One benchmark process: set up one workload, then either measure the
  * public pipeline untraced (`--trace 0`) or call each layer in pipeline
  * order and time it (`--trace 1`). Prints one `RESULT {json}` line for
  * `perfbench/run.py`, which builds the classpath and starts it as
  * `perfbench.Main --workload audit-msp --seed 0 --seconds 4 --trace 0`.
  */
object Main {
  import Harness._

  /** Seconds of untimed ranking passes before the timed ones; on a 4-core
    * VM passes get faster for some 10 s, from 0.5–0.6 s to 0.3–0.35 s. No
    * collection is forced in between: after a `System.gc()` the first timed
    * passes were as slow as the first untimed ones.
    */
  val WarmRankSeconds = 5.0

  /** Fewest timed ranking passes behind one `test_s` median. */
  val MinRankPasses = 7

  final class Out {
    val metrics = mutable.LinkedHashMap.empty[String, Double]
    val facts = mutable.LinkedHashMap.empty[String, Any]
    val errors = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed = 0

    def metric(name: String, value: Double): Unit = metrics(name) = value

    /** Counts an operation; it fails when `errs` is non-empty. */
    def op(what: String, errs: Seq[String]): Unit = {
      attempted += 1
      if (errs.nonEmpty) { failed += 1; errors ++= errs.map(e => s"$what: $e") }
    }

    def json: String = {
      def str(s: String) = "\"" + s.flatMap {
        case '"' => "\\\""; case '\\' => "\\\\"; case c if c < ' ' => " "; case c => c.toString
      } + "\""
      def value(v: Any): String = v match {
        case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
        case n: Int    => n.toString
        case n: Long   => n.toString
        case x         => str(x.toString)
      }
      val ms = metrics.map { case (k, v) => s"${str(k)}: ${value(v)}" }
      val fs = facts.map { case (k, v) => s"${str(k)}: ${value(v)}" }
      s"""{"attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}, """ +
        s""""facts": {${fs.mkString(", ")}}, "errors": [${errors.take(20).map(str).mkString(", ")}]}"""
    }
  }

  /** What the checks need from a scenario, collected once, when first
    * checked: after a run, so that the collects do not count as set-up.
    */
  final class Inputs(val w: Workload, val sc: Scenario, val seed: Long) {
    val bench: Tables.Bench = w.bench(seed)
    private def docs(df: DataFrame) = df.select("docId").distinct().collect().map(_.getString(0)).toSet
    lazy val queryDocs: Set[String] = docs(sc.queries.units)
    lazy val candDocs: Set[String] = docs(sc.candidates.units)
    lazy val candSorted: Seq[String] = candDocs.toSeq.sorted
    lazy val truth: Set[(String, String)] = sc.truth.collect().map(r => (r.getString(0), r.getString(1))).toSet
  }

  def collectRanked(df: DataFrame): Seq[Ranked] =
    df.select("queryId", "candId", "sim", "rank").collect().toSeq
      .map(r => Ranked(r.getString(0), r.getString(1), r.getDouble(2), r.getInt(3)))

  /** Every check on one ranking; returns the violations and the checked
    * MRR and HasPositive@5.
    */
  def checkRanking(in: Inputs, rankedDf: DataFrame, vectors: Map[String, Array[Float]])
      : (Seq[String], Double, Double) = {
    val rows = collectRanked(rankedDf)
    val k = in.bench.topK
    val structure = Check.ranking(rows, in.queryDocs, in.candDocs, k)
    val oracle = Check.oracle(rows, vectors, in.bench.dim, in.candSorted)
    val mrr = RankMetrics.mrr(rankedDf, in.sc.truth)
    val hp5 = RankMetrics.hasPositiveAtK(rankedDf, in.sc.truth, 5)
    val metricErrs = Seq(
        "RankMetrics.mrr" -> (mrr, Check.mrr(rows, in.truth)),
        "RankMetrics.hasPositiveAtK(5)" -> (hp5, Check.hasPositive(rows, in.truth, 5)))
      .collect { case (what, (theirs, ours)) if math.abs(theirs - ours) > 1e-9 => s"$what gives $theirs, recomputed $ours" }
    val selfTest =
      if (structure.nonEmpty) Nil
      else Check.selfTest(rows, in.queryDocs, in.candDocs, k).map(c => s"checker self-test: $c passed the check")
    (structure ++ oracle ++ metricErrs ++ selfTest, mrr, hp5)
  }

  /** The public pipeline, as a user runs it. */
  def pipeline(spark: SparkSession, in: Inputs): TDMatch.Result = {
    val merge = Tables.mergeFor(spark, in.sc, in.w.useGamma, useBuckets = false, in.bench)
    TDMatch.run(spark, in.sc.queries, in.sc.candidates, in.w.config(in.sc, merge, in.seed))
  }

  def rankPass(spark: SparkSession, in: Inputs, vectors: Map[String, Array[Float]]): Array[org.apache.spark.sql.Row] =
    TDMatch.rank(spark, in.sc.queries, in.sc.candidates, vectors, in.bench.dim, in.bench.topK).collect()

  final case class RunStats(pipelineS: Double, testS: Seq[Double], mrr: Double, hp5: Double, heapMb: Double)

  /** One untraced pipeline run, its checks, then, given `rankSeconds`,
    * timed ranking passes on its vectors for that long (at least
    * [[MinRankPasses]], after [[WarmRankSeconds]] of untimed ones).
    */
  def untracedRun(spark: SparkSession, in: Inputs, out: Out, label: String,
                  rankSeconds: Option[Double]): Option[RunStats] = {
    resetHeapPeak()
    val stats =
      try {
        val steal0 = stealSeconds
        val (res, pipelineS) = timed(pipeline(spark, in))
        out.facts(s"$label.cpu_steal_s") = stealSeconds - steal0
        val heapMb = heapAfterGcPeakMb
        out.facts(s"$label.heap_pool_peaks_mb") = heapPoolPeaksMb
        val (errs, mrr, hp5) = checkRanking(in, res.ranked, res.vectors)
        val tests = rankSeconds.fold(Seq.empty[Double]) { secs =>
          val warm = repeatFor(WarmRankSeconds, 1)(rankPass(spark, in, res.vectors))
          out.facts(s"$label.warm_passes_s") = warm.map(t => f"$t%.3f").mkString(" ")
          repeatFor(secs, MinRankPasses)(rankPass(spark, in, res.vectors))
        }
        out.facts(s"$label.pipeline_s") = pipelineS
        out.facts(s"$label.nodes_base") = res.originalGraph.numNodes
        out.facts(s"$label.edges_base") = res.originalGraph.numEdges
        out.facts(s"$label.nodes_final") = res.graph.numNodes
        out.facts(s"$label.edges_final") = res.graph.numEdges
        out.op(label, errs)
        if (errs.isEmpty) Some(RunStats(pipelineS, tests, mrr, hp5, heapMb)) else None
      } catch {
        case e: Exception => out.op(label, Seq(s"threw $e")); None
      }
    spark.catalog.clearCache()
    stats
  }

  /** The workload's scenario and, for γ-merge, the pretrained stand-in;
    * the time of each is a fact.
    */
  def setup(spark: SparkSession, w: Workload, seed: Long, out: Out): Inputs = {
    val (sc, scenarioS) = timed(w.scenario(spark, seed))
    val in = new Inputs(w, sc, seed)
    out.facts("setup.scenario_s") = scenarioS
    out.facts("setup.pretrained_s") =
      if (w.useGamma) timed(Pretrained.vectors(spark, in.sc.world, in.bench.dim))._2 else 0.0
    in
  }

  // ------------------------------------------------------------ traced run

  /** Per-layer spans, from the benchmark's side of each layer's public
    * function, with each layer's output materialised at the boundary by
    * persisting it and counting its rows. Benchmark work between the
    * spans (graph checks, token count) is kept out of the run-wide time,
    * job, task and GC figures. Returns the spans and the run's wall time.
    */
  def traced(spark: SparkSession, in: Inputs, counter: JobCounter, out: Out): (Map[String, Double], Double) = {
    val w = in.w
    val cfg = w.config(in.sc, None, in.seed)
    val spans = mutable.LinkedHashMap.empty[String, Double]
    def layer[A](name: String)(body: => A): A = {
      val before = counter.snap(spark)
      val (a, s) = timed(body)
      val d = counter.snap(spark) - before
      spans(name) = s
      out.metric(s"$name.s", s)
      out.metric(s"$name.spark_jobs", d.jobs.toDouble)
      out.metric(s"$name.shuffle_mb", d.shuffleBytes / (1024.0 * 1024.0))
      a
    }
    var aside = Snap(0, 0, 0)
    var asideS, asideGc = 0.0
    def outside[A](body: => A): A = {
      val (before, gcBefore) = (counter.snap(spark), gcSeconds)
      val (a, s) = timed(body)
      aside += counter.snap(spark) - before
      asideS += s
      asideGc += gcSeconds - gcBefore
      a
    }
    val errs = mutable.ArrayBuffer.empty[String]
    /** Checks `g` from outside and returns its nodes as (id, kind). */
    def graphCheck(stage: String, g: Graph): Seq[(String, String)] = outside {
      val nodes = g.nodes.collect().map(r => (r.getString(0), r.getString(1))).toSeq
      val edges = g.edges.collect().map(r => (r.getString(0), r.getString(1))).toSeq
      out.facts(s"$stage.nodes") = nodes.size
      out.facts(s"$stage.edges") = edges.size
      errs ++= Check.graph(nodes, edges, in.queryDocs, in.candDocs).map(e => s"graph after $stage: $e")
      nodes
    }
    def materialised(stage: String, g: Graph): Graph = {
      out.metric(s"$stage.nodes", g.numNodes.toDouble)
      out.metric(s"$stage.edges", g.numEdges.toDouble)
      g
    }

    resetHeapPeak()
    val gc0 = gcSeconds
    val all0 = counter.snap(spark)
    val t0 = System.nanoTime()

    val merge = layer("merge") {
      val m = Tables.mergeFor(spark, in.sc, w.useGamma, useBuckets = false, in.bench).map(_.persist())
      out.metric("merge.map_rows", m.fold(0L)(_.count()).toDouble)
      m
    }
    val base = layer("build") {
      materialised("build", GraphBuilder.build(spark, in.sc.queries, in.sc.candidates,
        GraphBuilder.Config(maxN = cfg.maxN, mergeMap = merge)).persist())
    }
    graphCheck("build", base)
    val expanded = cfg.expansion.fold(base) { kb =>
      val g = layer("expand")(materialised("expand", Expansion.expand(spark, base, kb).persist()))
      val kbNodes = graphCheck("expand", g).count(_._2 == Kind.Kb)
      out.metric("expand.kb_nodes", kbNodes.toDouble)
      g
    }
    val graph = w.mspBeta.fold(expanded) { beta =>
      val g = layer("compress")(materialised("compress", MSP.compress(spark, expanded, beta, cfg.seed).persist()))
      graphCheck("compress", g)
      g
    }
    val sentences = layer("walk") {
      val s = RandomWalks.walks(spark, graph, cfg.numWalks, cfg.walkLength, cfg.seed).persist()
      out.metric("walk.sentences", s.count().toDouble)
      s
    }
    val tokens = outside(sentences.agg(sum(size(col("sentence")))).head().getLong(0)).toDouble
    out.metric("walk.tokens", tokens)
    out.metric("walk.tokens_per_s", tokens / spans("walk"))
    val vectors = layer("embed") {
      Embeddings.train(spark, sentences,
        Embeddings.Config(cfg.vectorSize, cfg.window, 1, cfg.w2vIterations, cfg.seed))
    }
    out.metric("embed.vocab", vectors.size.toDouble)
    out.metric("embed.tokens_per_s", tokens / spans("embed"))
    val metaIds = in.queryDocs.toSeq.map(Graph.metaId1) ++ in.candDocs.toSeq.map(Graph.metaId2)
    out.metric("embed.meta_coverage", metaIds.count(vectors.contains).toDouble / metaIds.size)
    val rankedRows = layer("match")(rankPass(spark, in, vectors))
    val pairs = in.queryDocs.size.toDouble * in.candDocs.size
    out.metric("match.pairs", pairs)
    out.metric("match.pairs_per_s", pairs / spans("match"))
    val tracedTotal = seconds(t0) - asideS

    val all = counter.snap(spark) - all0 - aside
    out.metric("jvm.gc_s", gcSeconds - gc0 - asideGc)
    out.metric("spark.jobs", all.jobs.toDouble)
    out.metric("spark.tasks", all.tasks.toDouble)
    out.facts("trace.checks_s") = asideS
    out.facts("trace.peak_heap_mb") = heapAfterGcPeakMb

    val rankedDf = {
      import spark.implicits._
      rankedRows.toSeq.map(r => (r.getString(0), r.getString(1), r.getDouble(2), r.getInt(3)))
        .toDF("queryId", "candId", "sim", "rank")
    }
    val (rankErrs, mrr, hp5) = checkRanking(in, rankedDf, vectors)
    out.op("traced run", errs.toSeq ++ rankErrs)
    out.facts("trace.mrr") = mrr
    out.facts("trace.hp_5") = hp5
    spark.catalog.clearCache()
    (spans.toMap, tracedTotal)
  }

  /** [[traced]], counting a run that throws as a failed operation. */
  def tracedOrFailed(spark: SparkSession, in: Inputs, counter: JobCounter, out: Out): (Map[String, Double], Double) =
    try traced(spark, in, counter, out)
    catch { case e: Exception => out.op("traced run", Seq(s"threw $e")); (Map.empty, 0.0) }

  // ------------------------------------------------------------------ main

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workloads.byName(opts.getOrElse("workload", "")).getOrElse {
      System.err.println(s"unknown workload; choose one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "0").toLong
    val seconds = opts.getOrElse("seconds", "4").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    val master = s"local[${Runtime.getRuntime.availableProcessors}]"

    val out = new Out
    out.facts("setup.jvm_s") = sinceJvmStart
    val (spark, sessionS) = timed(session(master))
    out.facts("setup.session_s") = sessionS
    val counter = new JobCounter
    spark.sparkContext.addSparkListener(counter)
    val in = setup(spark, w, seed, out)
    out.metric("setup_s", sinceJvmStart)

    if (!trace) {
      untracedRun(spark, in, out, "run", Some(seconds)).foreach { r =>
        out.metric("pipeline_s", r.pipelineS)
        out.metric("test_s", median(r.testS))
        out.metric("mrr", r.mrr)
        out.metric("hp_5", r.hp5)
        out.metric("peak_heap_mb", r.heapMb)
        out.facts("test_passes_s") = r.testS.map(t => f"$t%.3f").mkString(" ")
      }
    } else {
      // The untraced run is the first, as in `--trace 0`; the traced run
      // after it is warm, so the traced-minus-untraced difference holds
      // the first run's warm-up as well as the cost of tracing.
      val untraced = untracedRun(spark, in, out, "run", None)
      val (spans, tracedS) = tracedOrFailed(spark, in, counter, out)
      for (u <- untraced if spans.nonEmpty) {
        out.metric("trace_gap_s", u.pipelineS - spans.values.sum)
        out.metric("trace_overhead_s", tracedS - u.pipelineS)
      }
      if (w.singleThreadBaseline) {
        // Same JVM, so JIT state matches; a fresh context with one core.
        spark.stop()
        val spark1 = session("local[1]")
        val counter1 = new JobCounter
        spark1.sparkContext.addSparkListener(counter1)
        val out1 = new Out
        val (spans1, _) = tracedOrFailed(spark1, setup(spark1, w, seed, out1), counter1, out1)
        out.attempted += out1.attempted
        out.failed += out1.failed
        out.errors ++= out1.errors.map("local[1] " + _)
        for ((l, s) <- spans; s1 <- spans1.get(l)) out.metric(s"$l.speedup_1t", s1 / s)
        out.facts("baseline_master") = spark1.sparkContext.master
      }
    }

    out.facts("workload") = w.name
    out.facts("seed") = seed
    out.facts("pipeline_seed") = in.bench.seed
    out.facts("nproc") = Runtime.getRuntime.availableProcessors
    out.facts("xmx_mb") = Runtime.getRuntime.maxMemory / (1024 * 1024)
    out.facts("jdk") = System.getProperty("java.version")
    out.facts("spark") = spark.version
    out.facts("master") = master
    out.facts("shuffle_partitions") = ShufflePartitions
    out.facts("broadcast_threshold") = BroadcastThreshold
    out.facts("layers") = w.layers.mkString(" ")
    out.facts("layers_bypassed") = Workloads.Layers.diff(w.layers).mkString(" ")

    println("RESULT " + out.json)
    SparkSession.getActiveSession.foreach(_.stop())
  }
}
