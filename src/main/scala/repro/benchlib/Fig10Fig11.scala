package repro.benchlib

import repro.ctp._
import repro.gen.{GeneratedGraph, GraphGen}

/** Shared workload grid for Figures 10 and 11: Line / Comb / Star graph
  * sweeps with 1-node seed sets, each CTP having exactly one result.
  */
object SyntheticCtpWorkloads {

  final case class Workload(family: String, params: String, gen: GeneratedGraph) {
    lazy val mem: repro.core.InMemoryGraph = gen.toInMemory
    def m: Int = gen.seedSets.size
    def edges: Int = gen.edges.size
  }

  /** The grid used for the baseline comparison (Fig. 10) — modest sizes,
    * because the BFT family explodes exactly as the paper reports.
    */
  def fig10Grid: Seq[Workload] = Seq(
    Workload("Line", "m=3,nL=2", GraphGen.line(3, 2)),
    Workload("Line", "m=5,nL=2", GraphGen.line(5, 2)),
    Workload("Line", "m=10,nL=2", GraphGen.line(10, 2)),
    Workload("Line", "m=10,nL=4", GraphGen.line(10, 4)),
    Workload("Comb", "nA=2,nS=1,sL=2,dBA=2 (m=4)", GraphGen.comb(2, 1, 2, 2)),
    Workload("Comb", "nA=3,nS=2,sL=2,dBA=2 (m=9)", GraphGen.comb(3, 2, 2, 2)),
    Workload("Comb", "nA=4,nS=2,sL=2,dBA=2 (m=12)", GraphGen.comb(4, 2, 2, 2)),
    Workload("Comb", "nA=5,nS=2,sL=2,dBA=2 (m=15)", GraphGen.comb(5, 2, 2, 2)),
    Workload("Star", "m=5,sL=2", GraphGen.star(5, 2)),
    Workload("Star", "m=8,sL=3", GraphGen.star(8, 3)),
    Workload("Star", "m=10,sL=2", GraphGen.star(10, 2)),
  )

  /** One search of a Fig. 10 or Fig. 11 grid. */
  final case class Row(family: String, params: String, m: Int, edges: Int,
                       algo: String, ms: Double, provenances: Long,
                       results: Int, timedOut: Boolean)

  object Row {
    def apply(w: Workload, algo: String, out: SearchOutcome): Row =
      Row(w.family, w.params, w.m, w.edges, algo, out.stats.elapsedMs,
        out.stats.provenances, out.results.size, out.stats.timedOut)
  }

  /** Renders and prints the rows as a markdown table. */
  def render(title: String, rows: Seq[Row]): String =
    Bench.table(title,
      Seq("family", "params", "m", "edges", "algo", "ms", "provenances", "results", "timedOut"),
      rows.map(r => Seq(r.family, r.params, r.m, r.edges, r.algo, r.ms,
        r.provenances, r.results, r.timedOut)))

  /** The larger grid for the GAM-variant comparison (Fig. 11). */
  def fig11Grid: Seq[Workload] = Seq(
    Workload("Line", "m=3,nL=4", GraphGen.line(3, 4)),
    Workload("Line", "m=5,nL=4", GraphGen.line(5, 4)),
    Workload("Line", "m=10,nL=4", GraphGen.line(10, 4)),
    Workload("Line", "m=10,nL=8", GraphGen.line(10, 8)),
    Workload("Comb", "nA=4,nS=2,sL=2,dBA=2 (m=12)", GraphGen.comb(4, 2, 2, 2)),
    Workload("Comb", "nA=5,nS=2,sL=2,dBA=2 (m=15)", GraphGen.comb(5, 2, 2, 2)),
    Workload("Comb", "nA=6,nS=2,sL=2,dBA=2 (m=18)", GraphGen.comb(6, 2, 2, 2)),
    Workload("Star", "m=6,sL=3", GraphGen.star(6, 3)),
    Workload("Star", "m=10,sL=2", GraphGen.star(10, 2)),
    Workload("Star", "m=12,sL=2", GraphGen.star(12, 2)),
  )
}

/** Fig. 10: complete baseline algorithms (BFT, BFT-M, BFT-AM, GAM). */
object Fig10Baselines {
  import SyntheticCtpWorkloads.Row

  val title = "Fig. 10 — baseline CTP algorithms (Line/Comb/Star)"

  def run(timeoutMs: Long = 5000L): Seq[Row] =
    for {
      w <- SyntheticCtpWorkloads.fig10Grid
      algo <- Seq("BFT", "BFT-M", "BFT-AM", "GAM")
    } yield {
      val cfg = CtpEvalConfig(timeoutMs = timeoutMs)
      Row(w, algo, algo match {
        case "GAM" => GamEngine.run(w.mem, w.gen.seedSpecs, cfg, GamVariant.GAM)
        case b     => BftEngine.run(w.mem, w.gen.seedSpecs, cfg, BftMerge.byName(b))
      })
    }
}

/** Fig. 11: GAM pruning variants, runtime and provenance counts. */
object Fig11Variants {
  import SyntheticCtpWorkloads.Row

  val title = "Fig. 11 — GAM variants (runtime and provenances)"

  def run(timeoutMs: Long = 30000L): Seq[Row] =
    for {
      w <- SyntheticCtpWorkloads.fig11Grid
      v <- GamVariant.all
    } yield Row(w, v.name,
      GamEngine.run(w.mem, w.gen.seedSpecs, CtpEvalConfig(timeoutMs = timeoutMs), v))
}
