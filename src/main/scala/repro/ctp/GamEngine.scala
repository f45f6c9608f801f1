package repro.ctp

import scala.collection.mutable
import repro.core.InMemoryGraph

/** One member of the GAM family (§4.2–§4.7), as a flag combination.
  *
  * @param edgeSetPruning ESP (Def. 4.3): prune any provenance whose
  *                       non-empty edge set was already seen
  * @param mo             MoESP (§4.5): add seed-re-rooted copies when a
  *                       tree strictly gains seeds; no Grow on Mo trees
  * @param lesp           LESP (§4.6): spare Merge trees rooted at nodes
  *                       with Σss ≥ 3 and degree ≥ 3 from ESP pruning
  */
final case class GamVariant(name: String, edgeSetPruning: Boolean, mo: Boolean, lesp: Boolean) {
  require(edgeSetPruning || (!mo && !lesp), "Mo/LESP only refine ESP")
}

object GamVariant {
  val GAM: GamVariant    = GamVariant("GAM", edgeSetPruning = false, mo = false, lesp = false)
  val ESP: GamVariant    = GamVariant("ESP", edgeSetPruning = true, mo = false, lesp = false)
  val MoESP: GamVariant  = GamVariant("MoESP", edgeSetPruning = true, mo = true, lesp = false)
  val LESP: GamVariant   = GamVariant("LESP", edgeSetPruning = true, mo = false, lesp = true)
  val MoLESP: GamVariant = GamVariant("MoLESP", edgeSetPruning = true, mo = true, lesp = true)
  val all: Seq[GamVariant] = Seq(GAM, ESP, MoESP, LESP, MoLESP)
  def byName(n: String): GamVariant = all.find(_.name == n)
    .getOrElse(throw new IllegalArgumentException(s"unknown GAM variant: $n"))
}

/** Rooted-tree search with priority-queue Grow and aggressive Merge —
  * the paper's Algorithms 1–5, parameterized by [[GamVariant]].
  *
  * The exploration order is smallest-tree-first with a (optionally
  * seeded pseudo-random) tie-break; MoLESP's guarantees are independent
  * of this order, and tests exploit the seed to exercise many orders.
  */
object GamEngine {

  def run(g: InMemoryGraph, seeds: Seq[SeedSpec], cfg: CtpEvalConfig,
          variant: GamVariant): SearchOutcome =
    new GamEngine(new SearchContext(g, seeds, cfg), variant).search()

  def run(ctx: SearchContext, variant: GamVariant): SearchOutcome =
    new GamEngine(ctx, variant).search()
}

private final class GamEngine(ctx: SearchContext, variant: GamVariant) {
  import ctx.{g, cfg}

  /** A Grow opportunity: tree `t` can grow with edge `e` (queue entry). */
  private final case class QE(t: STree, e: Int, size: Int, tie: Long)

  private val qeOrdering: Ordering[QE] =
    Ordering.by((q: QE) => (q.size, q.tie))

  private def newQueue() = mutable.PriorityQueue.empty(qeOrdering.reverse)

  // Either one global queue, or one per sat-signature (§4.9 (ii)).
  private val queues = mutable.LinkedHashMap.empty[Long, mutable.PriorityQueue[QE]]
  private def queueFor(sat: Long): mutable.PriorityQueue[QE] =
    queues.getOrElseUpdate(if (cfg.balancedQueues) sat else 0L, newQueue())

  // Search history. `histEdgeSets` is ESP's Hist; `seenRooted` dedups
  // rooted trees (GAM mode, INIT trees, Mo copies, LESP's spare check).
  private val histEdgeSets = mutable.HashSet.empty[EdgeSet]
  private val seenRooted = mutable.HashMap.empty[Int, mutable.HashSet[EdgeSet]]
  // TreesRootedIn: Merge-partner candidates per root.
  private val partners = mutable.HashMap.empty[Int, mutable.ArrayBuffer[STree]]

  // LESP seed signatures ss_n.
  private val ss = new Array[Long](g.numNodes)

  private val budget = new SearchBudget(cfg)
  import budget.{checkClock, done}

  private var seq = 0L

  private def tie(): Long = {
    seq += 1
    if (cfg.tieSeed == 0L) seq
    else {
      // splitmix64 of (seq ^ seed): a cheap deterministic shuffle.
      var z = seq ^ cfg.tieSeed
      z = (z + 0x9e3779b97f4a7c15L)
      z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
      z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
      z ^ (z >>> 31)
    }
  }

  private def rootedSeen(t: STree): Boolean =
    seenRooted.get(t.root).exists(_.contains(t.edges))

  /** Alg. 4 ISNEW — rooted dedup for plain GAM, ESP's edge-set test,
    * plus LESP's sparing condition.
    */
  private def isNew(t: STree): Boolean = {
    if (!variant.edgeSetPruning || t.edges.isEmpty) !rootedSeen(t)
    else if (!histEdgeSets.contains(t.edges)) true
    else if (variant.lesp &&
             java.lang.Long.bitCount(ss(t.root)) >= 3 &&
             g.degree(t.root) >= 3 &&
             !rootedSeen(t)) true
    else false
  }

  private def markSeen(t: STree): Unit = {
    if (variant.edgeSetPruning && !t.edges.isEmpty) histEdgeSets += t.edges
    seenRooted.getOrElseUpdate(t.root, mutable.HashSet.empty) += t.edges
  }

  private def enqueueGrows(t: STree): Unit = {
    val es = g.adj(t.root)
    var i = 0
    while (i < es.length) {
      val e = es(i)
      if (ctx.canGrow(t, t.root, e)) queueFor(t.sat).enqueue(QE(t, e, t.size + 1, tie()))
      i += 1
    }
  }

  /** Alg. 2 PROCESSTREE, minus the merge cascade (returned to caller):
    * dedups, records results, registers merge partners, enqueues grows,
    * and spawns Mo copies. Returns the admitted trees (t and any new Mo
    * copies) for the caller's merge worklist.
    */
  private def admit(t: STree, satIncreased: Boolean): List[STree] = {
    budget.provenances += 1
    checkClock()
    if (!isNew(t)) { budget.pruned += 1; return Nil }
    markSeen(t)
    budget.kept += 1
    val result = ctx.isResult(t)
    if (result) {
      budget.addResult(ctx.toFound(t.edges, t.seeds))
      if (!ctx.continueAfterResult) return Nil
    }
    partners.getOrElseUpdate(t.root, mutable.ArrayBuffer.empty) += t
    if (!t.isMo) enqueueGrows(t)
    var admitted: List[STree] = t :: Nil
    if (variant.mo && satIncreased && !result) {
      // §4.5: one copy per seed node of t, re-rooted there; Grow stays off.
      var i = 0
      val seen = mutable.HashSet.empty[Int]
      while (i < ctx.m) {
        val s = t.seeds(i)
        if (s >= 0 && s != t.root && seen.add(s)) {
          ctx.moReroot(t, s).foreach { mt =>
            budget.provenances += 1
            if (!rootedSeen(mt)) {
              markSeen(mt)
              budget.kept += 1
              partners.getOrElseUpdate(mt.root, mutable.ArrayBuffer.empty) += mt
              admitted = mt :: admitted
            } else budget.pruned += 1
          }
        }
        i += 1
      }
    }
    admitted
  }

  /** Alg. 5 MERGEALL: aggressively merges every admitted tree with all
    * compatible partners sharing its root, cascading on new results.
    */
  private def admitAndMergeAll(t: STree, satIncreased: Boolean): Unit = {
    val wl = mutable.ArrayDeque.empty[STree]
    admit(t, satIncreased).foreach(wl.append)
    while (wl.nonEmpty && !done) {
      val a = wl.removeHead()
      partners.get(a.root).foreach { ps =>
        val lim = ps.length // later-added partners get their own pass
        var i = 0
        while (i < lim && !done) {
          val p = ps(i)
          if ((p ne a) && ctx.canMerge(a, p, a.root)) {
            budget.merges += 1
            admit(ctx.merge(a, p), satIncreased = true).foreach(wl.append)
          }
          checkClock()
          i += 1
        }
      }
    }
  }

  private def pollNext(): Option[QE] = {
    // §4.9 (ii): with balanced queues, poll from the least-filled one.
    var best: mutable.PriorityQueue[QE] = null
    queues.valuesIterator.foreach { q =>
      if (q.nonEmpty && (best == null || q.size < best.size)) best = q
    }
    if (best == null) None else Some(best.dequeue())
  }

  def search(): SearchOutcome = {
    // INIT trees from every concrete seed set (§4.9 (i): none for N).
    var i = 0
    while (i < ctx.m && !done) {
      if (!ctx.isAllNodes(i)) {
        val set = ctx.seedSets(i)
        var j = 0
        while (j < set.length && !done) {
          val s = set(j)
          ss(s) |= ctx.seedMask(s)
          admitAndMergeAll(ctx.init(s), satIncreased = false)
          j += 1
        }
      }
      i += 1
    }
    // Main Grow loop (Alg. 1).
    var continue = true
    while (continue && !done) {
      pollNext() match {
        case None => continue = false
        case Some(qe) =>
          budget.grows += 1
          val t1 = ctx.grow(qe.t, qe.t.root, qe.e)
          if (t1.isSeedPath) ss(t1.root) |= t1.sat
          admitAndMergeAll(t1, satIncreased = ctx.seedMask(t1.root) != 0L)
          checkClock()
      }
    }
    budget.outcome()
  }
}
