package perfbench

import repro.core.{Graph, Kind}

/** One ranked row over raw document ids. */
final case class Ranked(queryId: String, candId: String, sim: Double, rank: Int)

/** Output and graph checks made from outside the pipeline. Each returns the
  * list of violations found; empty means the check passed.
  */
object Check {

  val SimTolerance = 1e-6

  /** Plain cosine, zero for a zero vector, as the matcher computes it. */
  def cosine(a: Array[Float], b: Array[Float]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)
  }

  /** Structure of a top-`k` ranking of `cands` for every doc of `queries`:
    * row count and ranks per query, known candidates, similarity not
    * increasing with rank, and ties broken towards the smaller candId.
    */
  def ranking(rows: Seq[Ranked], queries: Set[String], cands: Set[String], k: Int): Seq[String] = {
    val errs = Seq.newBuilder[String]
    val want = math.min(k, cands.size)
    val byQuery = rows.groupBy(_.queryId)
    (queries -- byQuery.keySet).toSeq.sorted.take(3).foreach(q => errs += s"query $q not ranked")
    (byQuery.keySet -- queries).toSeq.sorted.take(3).foreach(q => errs += s"unknown query $q")
    rows.filterNot(r => cands(r.candId)).take(3).foreach(r => errs += s"foreign candId ${r.candId} for ${r.queryId}")
    byQuery.foreach { case (q, rs) =>
      val sorted = rs.sortBy(_.rank)
      if (sorted.map(_.rank) != (1 to want)) errs += s"query $q has ranks ${sorted.map(_.rank).mkString(",")}, want 1..$want"
      if (rs.map(_.candId).distinct.size != rs.size) errs += s"query $q ranks a candidate twice"
      sorted.sliding(2).foreach {
        case Seq(a, b) =>
          if (b.sim > a.sim) errs += s"query $q: sim rises from rank ${a.rank} to ${b.rank}"
          else if (b.sim == a.sim && b.candId < a.candId) errs += s"query $q: tie at rank ${a.rank} not broken by candId"
        case _ =>
      }
    }
    errs.result()
  }

  /** The ranking agrees with an in-process cosine top-k over `vectors`,
    * where ids without a vector get the zero vector: every row's sim is
    * the cosine of its pair, and equals the oracle's sim at that rank up
    * to near-ties.
    */
  def oracle(rows: Seq[Ranked], vectors: Map[String, Array[Float]], dim: Int,
             cands: Seq[String]): Seq[String] = {
    val zero = new Array[Float](dim)
    def vec(id: String) = vectors.getOrElse(id, zero)
    val cvecs = cands.map(c => c -> vec(Graph.metaId2(c)))
    val errs = Seq.newBuilder[String]
    rows.groupBy(_.queryId).foreach { case (q, rs) =>
      val qv = vec(Graph.metaId1(q))
      val sims = cvecs.map { case (c, v) => c -> cosine(qv, v) }.toMap
      val best = sims.values.toArray.sorted(Ordering[Double].reverse)
      rs.foreach { r =>
        val s = sims.getOrElse(r.candId, Double.NaN)
        val atRank = best.lift(r.rank - 1).getOrElse(Double.NaN)
        if (!(math.abs(s - r.sim) <= SimTolerance)) errs += s"$q/${r.candId}: sim ${r.sim}, cosine $s"
        else if (!(math.abs(s - atRank) <= SimTolerance))
          errs += s"$q rank ${r.rank}: sim $s, oracle top-k has $atRank"
      }
    }
    errs.result().take(5)
  }

  /** Mean reciprocal rank of the first relevant candidate, 0 for a query
    * with none ranked.
    */
  def mrr(rows: Seq[Ranked], truth: Set[(String, String)]): Double = {
    val firstHit = rows.filter(r => truth((r.queryId, r.candId)))
      .groupBy(_.queryId).view.mapValues(_.map(_.rank).min).toMap
    val qs = truth.toSeq.map(_._1).distinct
    if (qs.isEmpty) 0.0 else qs.map(q => firstHit.get(q).fold(0.0)(1.0 / _)).sum / qs.size
  }

  /** Share of queries with a relevant candidate ranked within `k`. */
  def hasPositive(rows: Seq[Ranked], truth: Set[(String, String)], k: Int): Double = {
    val hit = rows.filter(r => r.rank <= k && truth((r.queryId, r.candId))).map(_.queryId).toSet
    val qs = truth.toSeq.map(_._1).distinct
    if (qs.isEmpty) 0.0 else qs.count(hit).toDouble / qs.size
  }

  /** Edges canonical (`src < dst`, hence no self-loops), no dangling
    * endpoint, and every document of both corpora still a metadata node.
    */
  def graph(nodes: Seq[(String, String)], edges: Seq[(String, String)],
            queryDocs: Set[String], candDocs: Set[String]): Seq[String] = {
    val errs = Seq.newBuilder[String]
    val kindOf = nodes.toMap
    edges.filterNot { case (s, d) => s < d }.take(3).foreach(e => errs += s"edge $e not canonical")
    edges.filterNot { case (s, d) => kindOf.contains(s) && kindOf.contains(d) }.take(3)
      .foreach(e => errs += s"edge $e has a dangling endpoint")
    def keeps(docs: Set[String], id: String => String, kind: String): Unit =
      docs.toSeq.sorted.filterNot(d => kindOf.get(id(d)).contains(kind)).take(3)
        .foreach(d => errs += s"document $d lost its $kind node")
    keeps(queryDocs, Graph.metaId1, Kind.Meta1)
    keeps(candDocs, Graph.metaId2, Kind.Meta2)
    errs.result()
  }

  /** Corrupts a valid ranking three ways and returns the corruptions the
    * structure check failed to catch; empty means the checker works.
    */
  def selfTest(rows: Seq[Ranked], queries: Set[String], cands: Set[String], k: Int): Seq[String] = {
    val q = rows.map(_.queryId).min
    val mine = rows.filter(_.queryId == q).sortBy(_.rank)
    val (r1, r2) = (mine(0), mine(1))
    val swapped = rows.map {
      case `r1` => r1.copy(rank = r2.rank)
      case `r2` => r2.copy(rank = r1.rank)
      case r    => r
    }
    val corruptions = Seq(
      "swapped ranks" -> swapped,
      "dropped query" -> rows.filterNot(_.queryId == q),
      "foreign candId" -> rows.map(r => if (r == r1) r.copy(candId = "no-such-candidate") else r))
    corruptions.collect { case (what, bad) if ranking(bad, queries, cands, k).isEmpty => what }
  }
}
