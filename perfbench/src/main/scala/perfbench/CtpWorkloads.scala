package perfbench

import scala.collection.mutable
import scala.util.Random
import repro.benchlib.SyntheticCtpWorkloads
import repro.core.InMemoryGraph
import repro.ctp._
import repro.gen.GraphGen
import repro.gstp.Dpbf

/** A search call on a prebuilt in-memory graph, traced by timing the call
  * and reading the counters the program returns.
  */
private object Search {
  def gam(g: InMemoryGraph, seeds: Seq[SeedSpec], cfg: CtpEvalConfig, v: GamVariant,
          t: Trace): SearchOutcome = {
    val out = t.time("search")(GamEngine.run(g, seeds, cfg, v))
    val s = out.stats
    t.add("search.provenances", s.provenances.toDouble)
    t.add("search.kept", s.kept.toDouble)
    t.add("search.grows", s.grows.toDouble)
    t.add("search.merges", s.merges.toDouble)
    t.add("search.pruned", s.pruned.toDouble)
    t.add("search.results", out.results.size.toDouble)
    out
  }
}

/** `ctp-synthetic`: points of the Fig. 11 Line/Comb/Star grid, full
  * enumeration by MoLESP and by GAM on prebuilt in-memory graphs; no
  * Spark. A round is [[CtpSynthetic.Passes]] passes over the points in
  * grid order, each pass running the 8 (graph, algorithm) searches. Each
  * search has exactly one answer: the generated graph's whole edge set.
  *
  * The kept points are those whose searches take about 0.3-5 ms
  * ([[CtpSynthetic.Points]]). The larger ones (Comb m=15 and m=18, Star
  * m=10 and m=12; 15 ms to 2 s each) are left out: they took 90% of a
  * round's time, so ops_per_s followed them alone, and their times moved
  * with the shared host's load up to 1.8 times as much as those of the
  * 1-5 ms searches; with them, ops_per_s spread by 0.31 over ten runs
  * while op_ms_p50, a 1.5 ms search, stayed inside its bound. The
  * smallest ones (Line m=3 and m=5, 0.1-0.3 ms) are left out too: they
  * time little more than the call, and with them below it the median
  * fell on the low edge of the 1-1.4 ms searches, where few operations
  * lie, and spread by 0.19.
  *
  * The inputs do not depend on the seed. The order is fixed because it
  * shapes what the JIT compiles: with a seed-chosen order, the same
  * searches ran up to twice as fast in some orders as in others.
  */
final class CtpSynthetic extends Workload {
  import CtpSynthetic._

  val warmupRounds = 4
  private var grid: Seq[SyntheticCtpWorkloads.Workload] = Nil

  def setUp(): Unit = {
    grid = SyntheticCtpWorkloads.fig11Grid.filter(w => Points((w.family, w.params)))
    require(grid.length == Points.size, "a ctp-synthetic point is missing from the Fig. 11 grid")
    grid.foreach(_.mem)
  }

  def round(r: Int): Option[Seq[Op]] = Some(for {
    _ <- 0 until Passes
    w <- grid
    v <- Seq(GamVariant.MoLESP, GamVariant.GAM)
  } yield {
    val whole = w.gen.edges.map(_.id).sorted
    new Op {
      val label = s"${w.family} ${w.params} ${v.name}"
      def run(): AnyRef = GamEngine.run(w.mem, w.gen.seedSpecs, CtpEvalConfig(), v)
      override def runTraced(t: Trace): AnyRef = Search.gam(w.mem, w.gen.seedSpecs, CtpEvalConfig(), v, t)
      def check(out: AnyRef): Option[String] = {
        val o = out.asInstanceOf[SearchOutcome]
        if (o.stats.timedOut) Some("timed out")
        else if (o.results.size != 1) Some(s"${o.results.size} results, expected 1")
        else if (o.results.head.edgeIds.toSeq != whole) Some("the answer is not the whole edge set")
        else None
      }
    }
  })
}

object CtpSynthetic {
  /** The Fig. 11 points measured, as (family, params). */
  val Points: Set[(String, String)] = Set(
    ("Line", "m=10,nL=4"), ("Line", "m=10,nL=8"),
    ("Comb", "nA=4,nS=2,sL=2,dBA=2 (m=12)"), ("Star", "m=6,sL=3"))
  /** Passes over the points per round: a round takes about 280 ms. */
  val Passes = 20
}

/** `ctp-kg-limit`: the Fig. 12 protocol, UNI + LIMIT 1 with balanced
  * queues, by MoLESP, GAM and DPBF (the QGSTP stand-in) on the DBPedia
  * substitute (`GraphGen.kgraph`, 20K nodes, about 70K edges; the graph
  * Fig. 12 uses). Each query's seed sets are single nodes: the ends of m
  * forward walks of 1 to 3 edges from a common apex. The queries are
  * drawn once from one fixed stream, the same in every run (with
  * seed-drawn queries, op_ms_p50 moved by about 20% from seed to seed),
  * and every round runs all of them: ten queries for each m in 2..3,
  * each by the three algorithms. With fresh queries in every round, a
  * run's query mix depended on how many rounds fit in its time, so a
  * slower machine also measured other queries. The first two rounds are
  * warm-up: a round took about 2.7 s, then 2.3 s, then 1.3-1.9 s from
  * the third on. Larger m is left out: at m = 4 some searches already
  * run for minutes, so a timeout would decide their answers.
  *
  * Every answer must pass the tree checker, and DPBF's tree may have no
  * more edges than the walks. MoLESP's and GAM's first trees are not
  * compared with DPBF's: DPBF is not optimal when the smallest tree
  * branches at a seed, so on some queries theirs are smaller.
  */
final class CtpKgLimit extends Workload {
  import CtpKgLimit._

  val warmupRounds = 2
  private val rnd = new Random(QueryStream)
  private val gen = GraphGen.kgraph(20000, 50000, seed = 5)
  private var mem: InMemoryGraph = _
  private lazy val ref = RefGraph(gen.nodes, gen.edges)

  def setUp(): Unit = mem = gen.toInMemory

  /** m forward walks from one apex; the m distinct walk ends and the
    * walks' total length, which bounds the smallest answer.
    */
  private def sample(m: Int): (Seq[Long], Int) = {
    var found: Option[(Seq[Long], Int)] = None
    while (found.isEmpty) {
      val apex = rnd.nextInt(ref.n)
      val ends = mutable.LinkedHashSet.empty[Int]
      var total = 0
      var tries = 0
      while (ends.size < m && tries < 40 * m) {
        tries += 1
        val len = 1 + rnd.nextInt(3)
        var cur = apex
        var steps = 0
        while (steps < len && ref.out(cur).nonEmpty) {
          val outs = ref.out(cur)
          cur = ref.edges(outs(rnd.nextInt(outs.length))).dst.toInt
          steps += 1
        }
        if (steps == len && cur != apex && ends.add(cur)) total += len
      }
      if (ends.size == m) found = Some((ends.toSeq.map(_.toLong), total))
    }
    found.get
  }

  private lazy val queries = for (m <- 2 to MaxM; _ <- 0 until QueriesPerM) yield sample(m)

  def round(r: Int): Option[Seq[Op]] = {
    Some(queries.flatMap { case (ends, walkEdges) =>
      val seeds = ends.map(id => NodeSeeds(Seq(id)))
      val sets = ends.map(Set(_))
      def treeFault(t: FoundTree): Option[String] =
        TreeCheck(ref, t.edgeIds.toSeq, sets, uni = true).left.toOption.map(w => s"tree ${t.edgeIds.mkString(",")}: $w")
      val q = s"m=${ends.size} ${ends.mkString(",")}"
      val gamOps = Seq(GamVariant.MoLESP, GamVariant.GAM).map { v =>
        val cfg = CtpEvalConfig(uni = true, limit = 1, balancedQueues = true, timeoutMs = TimeoutMs)
        new Op {
          val label = s"$q ${v.name}"
          def run(): AnyRef = GamEngine.run(mem, seeds, cfg, v)
          override def runTraced(t: Trace): AnyRef = Search.gam(mem, seeds, cfg, v, t)
          def check(out: AnyRef): Option[String] = {
            val o = out.asInstanceOf[SearchOutcome]
            if (o.stats.timedOut) Some("timed out")
            else if (o.results.size != 1) Some(s"${o.results.size} results, expected 1")
            else treeFault(o.results.head)
          }
        }
      }
      val dpbfOp = new Op {
        val label = s"$q DPBF"
        def run(): AnyRef = Dpbf.findOne(mem, seeds, directed = true, timeoutMs = TimeoutMs)
        override def runTraced(t: Trace): AnyRef = {
          val out = t.time("dpbf")(run())
          out.asInstanceOf[Option[FoundTree]].foreach(f => t.add("dpbf.tree_edges", f.edgeIds.length.toDouble))
          out
        }
        def check(out: AnyRef): Option[String] = out.asInstanceOf[Option[FoundTree]] match {
          case None => Some("no tree (timed out or not found)")
          case Some(f) => treeFault(f).orElse {
            if (f.edgeIds.length > walkEdges) Some(s"${f.edgeIds.length} edges, more than the walks' $walkEdges")
            else None
          }
        }
      }
      dpbfOp +: gamOps
    })
  }
}

object CtpKgLimit {
  val MaxM = 3
  val QueriesPerM = 10
  val TimeoutMs = 600000L
  val QueryStream = 12L
}
