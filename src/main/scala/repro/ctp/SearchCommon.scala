package repro.ctp

import scala.collection.mutable
import repro.core.InMemoryGraph

/** A seed set of a CTP (Def. 2.8): either an explicit node set, or `N`,
  * the set of all graph nodes (§4.9 case (i)).
  */
sealed trait SeedSpec
/** Explicit seed set, by external node ids. */
final case class NodeSeeds(ids: Seq[Long]) extends SeedSpec
/** The all-nodes seed set `N`; matched implicitly by every node. */
case object AllNodeSeeds extends SeedSpec

/** Score function σ over result trees (R2: any score can be plugged). */
trait ScoreFunction {
  def name: String
  def score(g: InMemoryGraph, t: FoundTree): Double
}

/** Default score: smaller trees are better (σ = −|edges|). */
object SizeScore extends ScoreFunction {
  val name = "size"
  def score(g: InMemoryGraph, t: FoundTree): Double = -t.edgeIds.length.toDouble
}

/** Rewards label diversity (a specificity-flavored score, to exercise R2). */
object LabelDiversityScore extends ScoreFunction {
  val name = "labelDiversity"
  def score(g: InMemoryGraph, t: FoundTree): Double =
    t.denseEdges.map(g.elabel).distinct.length.toDouble - 0.01 * t.denseEdges.length
}

object ScoreFunction {
  /** Registry used by the EQL SCORE filter. */
  val registry: Map[String, ScoreFunction] =
    Seq(SizeScore, LabelDiversityScore).map(s => s.name -> s).toMap
}

/** CTP filters of §2, pushed into evaluation per §4.8, plus the §4.9
  * balanced-queue switch and a tie-break seed that lets tests explore
  * different execution orders.
  *
  * @param uni            UNI filter: only trees with a root that reaches
  *                       every seed via directed paths
  * @param labels         LABEL filter: allowed edge labels
  * @param maxEdges       MAX n filter: largest allowed tree size
  * @param timeoutMs      per-CTP timeout T
  * @param limit          stop after this many results (LIMIT)
  * @param topK           keep only the k best per `score` (TOP k)
  * @param score          score function σ (SCORE)
  * @param tieSeed        seeds the priority-queue tie-break; 0 = FIFO
  * @param balancedQueues §4.9 (ii): one queue per sat-signature, poll the
  *                       least-filled one (helps very large seed sets)
  */
final case class CtpEvalConfig(
    uni: Boolean = false,
    labels: Option[Set[String]] = None,
    maxEdges: Int = Int.MaxValue,
    timeoutMs: Long = 600000L,
    limit: Int = Int.MaxValue,
    topK: Option[Int] = None,
    score: ScoreFunction = SizeScore,
    tieSeed: Long = 0L,
    balancedQueues: Boolean = false,
)

/** One CTP result: a minimal connecting tree (Def. 2.8).
  *
  * @param denseEdges dense edge indices, sorted (internal use)
  * @param edgeIds    external edge ids, sorted — the tree value bound to
  *                   the CTP's underlined variable
  * @param seedIds    per seed-set index: external id of the bound seed,
  *                   or -1 for an `N` seed set
  * @param score      σ(t)
  */
final case class FoundTree(
    denseEdges: Array[Int],
    edgeIds: Array[Long],
    seedIds: Array[Long],
    score: Double,
) {
  /** Canonical form of the tree: sorted external edge ids, plus the seed
    * bindings (which disambiguate 0-edge single-node results).
    */
  def treeKey: String = s"${edgeIds.mkString(",")}|${seedIds.mkString(",")}"
  def size: Int = edgeIds.length
}

/** Search counters — Fig. 11 plots `provenances` alongside runtime. */
final case class SearchStats(
    provenances: Long,
    kept: Long,
    grows: Long,
    merges: Long,
    pruned: Long,
    elapsedMs: Double,
    timedOut: Boolean,
)

/** Outcome of one CTP evaluation. */
final case class SearchOutcome(results: Vector[FoundTree], stats: SearchStats) {
  /** Sorted canonical keys, for set comparison in tests. */
  def resultKeys: Set[String] = results.map(_.treeKey).toSet
}

/** Per-search state shared by every CTP algorithm, built once per
  * search: the [[SearchStats]] counters, the TIMEOUT clock and LIMIT of
  * §4.8, and the result collector, which drops duplicate `treeKey`s and
  * applies TOP-k when the outcome is assembled.
  */
final class SearchBudget(cfg: CtpEvalConfig) {
  private val t0 = System.nanoTime()
  // A timeout too large to add to t0 without overflow never expires.
  private val deadlineNanos =
    if (cfg.timeoutMs >= Long.MaxValue / 2000000L) Long.MaxValue
    else t0 + cfg.timeoutMs * 1000000L
  private var opCount = 0L
  private var expired = false
  private val results = mutable.ArrayBuffer.empty[FoundTree]
  private val resultKeys = mutable.HashSet.empty[String]

  var provenances = 0L
  var kept = 0L
  var grows = 0L
  var merges = 0L
  var pruned = 0L

  def timedOut: Boolean = expired

  /** True once LIMIT results are in or the clock has expired. */
  def done: Boolean = results.size >= cfg.limit || expired

  /** Counts one operation; reads the clock every 1,024 operations. */
  def checkClock(): Unit = {
    opCount += 1
    if ((opCount & 0x3ff) == 0L && System.nanoTime() > deadlineNanos)
      expired = true
  }

  def addResult(f: FoundTree): Unit =
    if (resultKeys.add(f.treeKey)) results += f

  /** The results (SCORE/TOP-k applied) and the counters so far. */
  def outcome(): SearchOutcome = {
    val found = results.toVector
    SearchOutcome(
      cfg.topK.fold(found)(k => found.sortBy(-_.score).take(k)),
      SearchStats(provenances, kept, grows, merges, pruned,
        (System.nanoTime() - t0) / 1e6, expired))
  }
}

/** Shared machinery for all CTP algorithms: seed-set densification, the
  * Grow/Merge/INIT tree constructors with (Grow1)(Grow2)(Merge1)(Merge2)
  * and the pushed-down filters, result minimization, and UNI checks.
  *
  * All operations use dense node/edge indices of `g`.
  */
final class SearchContext(
    val g: InMemoryGraph,
    seedSpecs: Seq[SeedSpec],
    val cfg: CtpEvalConfig,
) {
  require(seedSpecs.nonEmpty && seedSpecs.size <= 62, "1..62 seed sets supported")

  val m: Int = seedSpecs.size

  /** Dense seed node indices per concrete seed set (empty for `N`). */
  val seedSets: Array[Array[Int]] = seedSpecs.map {
    case NodeSeeds(ids) => ids.map(g.nodeIndex).filter(_ >= 0).distinct.toArray
    case AllNodeSeeds   => Array.emptyIntArray
  }.toArray

  /** True at i iff seed set i is `N`. */
  val isAllNodes: Array[Boolean] = seedSpecs.map(_ == AllNodeSeeds).toArray

  /** Bitmask of the concrete (non-N) seed sets — what `sat` must reach. */
  val fullMask: Long = {
    var msk = 0L
    var i = 0
    while (i < m) { if (!isAllNodes(i)) msk |= 1L << i; i += 1 }
    msk
  }
  require(fullMask != 0L, "at least one concrete (non-N) seed set required")

  /** §4.9(i): with an N seed set, full-sat trees keep growing (every
    * further tree is another valid result).
    */
  val continueAfterResult: Boolean = isAllNodes.exists(identity)

  /** Per node: bitmask of concrete seed sets the node belongs to. */
  val seedMask: Array[Long] = {
    val a = new Array[Long](g.numNodes)
    var i = 0
    while (i < m) {
      if (!isAllNodes(i)) seedSets(i).foreach(s => a(s) |= 1L << i)
      i += 1
    }
    a
  }

  private val labelAllowed: Array[Boolean] = cfg.labels match {
    case None => null
    case Some(ls) =>
      val a = new Array[Boolean](g.labels.length)
      ls.foreach { l => val id = g.labelId(l); if (id >= 0) a(id) = true }
      a
  }

  /** LABEL filter check for one edge. */
  def edgeAllowed(e: Int): Boolean =
    labelAllowed == null || labelAllowed(g.elabel(e))

  /** Binds node `n` in `seeds` for every concrete seed set it belongs
    * to; returns `seeds`.
    */
  def bindSeeds(seeds: Array[Int], n: Int): Array[Int] = {
    var msk = seedMask(n)
    var i = 0
    while (msk != 0L) {
      if ((msk & 1L) != 0L) seeds(i) = n
      msk >>>= 1; i += 1
    }
    seeds
  }

  /** Builds INIT(n) for a seed node (sat = all its seed sets). */
  def init(n: Int): STree =
    new STree(n, EdgeSet.empty, Array(n), seedMask(n), bindSeeds(Array.fill(m)(-1), n),
      isSeedPath = true, isMo = false)

  /** Checks (Grow1), (Grow2) and the pushed filters for growing tree `t`
    * with edge `e` adjacent to its node `at`: GAM grows at `t.root`, BFT
    * at any node of `t`. Used at enqueue time.
    */
  def canGrow(t: STree, at: Int, e: Int): Boolean = {
    val n1 = g.other(e, at)
    n1 != at &&                                      // no self loops
    edgeAllowed(e) &&
    t.size + 1 <= cfg.maxEdges &&
    (!cfg.uni || (g.esrc(e) == n1 && g.edst(e) == at)) && // reverse grow
    !t.containsNode(n1) &&                           // (Grow1)
    (seedMask(n1) & t.sat) == 0L                     // (Grow2)
  }

  /** Builds Grow(t, e) at node `at`, rooted at the new node; caller must
    * have validated via [[canGrow]].
    */
  def grow(t: STree, at: Int, e: Int): STree = {
    val n1 = g.other(e, at)
    val msk = seedMask(n1)
    val seeds = if (msk == 0L) t.seeds else bindSeeds(t.seeds.clone(), n1)
    new STree(n1, t.edges + e, IntSetOps.insert(t.nodes, n1),
      t.sat | msk, seeds, isSeedPath = t.isSeedPath && msk == 0L, isMo = false)
  }

  /** Checks (Merge1), (Merge2) + MAX for merging two trees at their one
    * shared node `at`: GAM merges at the common root, BFT at any node.
    *
    * (Merge2) is stated as sat-disjointness in §4.2, but the §4.5
    * walkthrough merges `A-1-2-B` with `B-3-C` at root B — seed B is in
    * both sats. The condition compatible with both the walkthrough and
    * result minimality is: sats may overlap only on the shared node's
    * own seed sets (the merged tree still has one node per set).
    */
  def canMerge(a: STree, b: STree, at: Int): Boolean =
    (a.sat & b.sat & ~seedMask(at)) == 0L &&                   // (Merge2)
    a.size + b.size <= cfg.maxEdges &&
    IntSetOps.intersectOnlyAt(a.nodes, b.nodes, at)            // (Merge1)

  /** Builds Merge(a, b); caller must have validated via [[canMerge]]. */
  def merge(a: STree, b: STree): STree = {
    val seeds = new Array[Int](m)
    var i = 0
    while (i < m) {
      seeds(i) = if (a.seeds(i) >= 0) a.seeds(i) else b.seeds(i)
      i += 1
    }
    new STree(a.root, a.edges ++ b.edges, IntSetOps.union(a.nodes, b.nodes),
      a.sat | b.sat, seeds, isSeedPath = false, isMo = a.isMo || b.isMo)
  }

  /** Builds the Mo(t, r) re-rooted copy (§4.5). Returns None in UNI mode
    * when `r` does not reach every tree node via directed edges.
    */
  def moReroot(t: STree, r: Int): Option[STree] = {
    if (cfg.uni && !orientedReaches(t, r)) None
    else Some(new STree(r, t.edges, t.nodes, t.sat, t.seeds,
      isSeedPath = false, isMo = true))
  }

  /** True iff `sat == fullMask` — the tree connects every concrete set. */
  def isResult(t: STree): Boolean = t.sat == fullMask

  /** True iff root `r` reaches every node of `t` along directed edges
    * (UNI invariant; used to validate Mo re-roots and in tests).
    */
  def orientedReaches(t: STree, r: Int): Boolean = {
    if (t.nodes.length == 1) return t.nodes(0) == r
    val out = mutable.HashMap.empty[Int, List[Int]] // node -> outgoing tree edges
    t.edges.edges.foreach { e =>
      out(g.esrc(e)) = e :: out.getOrElse(g.esrc(e), Nil)
    }
    val seen = mutable.HashSet(r)
    var stack = List(r)
    while (stack.nonEmpty) {
      val n = stack.head; stack = stack.tail
      out.getOrElse(n, Nil).foreach { e =>
        val d = g.edst(e)
        if (t.containsNode(d) && seen.add(d)) stack = d :: stack
      }
    }
    seen.size == t.nodes.length
  }

  /** Minimizes an unrooted full-sat tree (BFT family, §4.1): repeatedly
    * drops edges adjacent to non-seed leaves. Returns the minimal edges.
    */
  def minimize(t: STree): EdgeSet = {
    val deg = mutable.HashMap.empty[Int, Int]
    val alive = mutable.LinkedHashSet.empty[Int]
    t.edges.edges.foreach { e =>
      alive += e
      deg(g.esrc(e)) = deg.getOrElse(g.esrc(e), 0) + 1
      deg(g.edst(e)) = deg.getOrElse(g.edst(e), 0) + 1
    }
    var changed = true
    while (changed) {
      changed = false
      val toDrop = alive.filter { e =>
        val s = g.esrc(e); val d = g.edst(e)
        (deg(s) == 1 && seedMask(s) == 0L) || (deg(d) == 1 && seedMask(d) == 0L)
      }
      if (toDrop.nonEmpty) {
        changed = true
        toDrop.foreach { e =>
          alive -= e
          deg(g.esrc(e)) -= 1; deg(g.edst(e)) -= 1
        }
      }
    }
    EdgeSet.sorted(alive.toArray.sorted)
  }

  /** Converts a kept tree into the externally-addressed [[FoundTree]]. */
  def toFound(edges: EdgeSet, seeds: Array[Int]): FoundTree = {
    val dense = edges.edges
    val ext = dense.map(g.edgeIds).sorted
    val seedIds = seeds.map(s => if (s >= 0) g.nodeIds(s) else -1L)
    val ft = FoundTree(dense, ext, seedIds, 0.0)
    ft.copy(score = cfg.score.score(g, ft))
  }
}
