package repro.ctp

import scala.collection.mutable
import repro.core.InMemoryGraph

/** Merge policy for the breadth-first family (§4.1, §4.3). */
sealed trait BftMerge
object BftMerge {
  /** Plain BFT: no Merge at all. */
  case object None extends BftMerge
  /** BFT-M: merge each Grow result with all partners, no cascading. */
  case object Single extends BftMerge
  /** BFT-AM: aggressive (cascading) merge, like GAM's step (2b). */
  case object Aggressive extends BftMerge
  def byName(n: String): BftMerge = n match {
    case "BFT"    => None
    case "BFT-M"  => Single
    case "BFT-AM" => Aggressive
    case other    => throw new IllegalArgumentException(s"unknown BFT variant: $other")
  }
}

/** Breadth-first connecting-tree search (§4.1) with optional Merge
  * (§4.3). Trees are unrooted edge sets that grow from *any* of their
  * nodes, so full-sat trees may be non-minimal and must be minimized
  * before being reported — the very overhead the paper measures.
  *
  * Complete (as are BFT-M / BFT-AM) but drastically slower than the GAM
  * family; used only as a baseline, and only without UNI / N seed sets.
  */
object BftEngine {

  def run(g: InMemoryGraph, seeds: Seq[SeedSpec], cfg: CtpEvalConfig,
          mergeMode: BftMerge): SearchOutcome =
    new BftEngine(new SearchContext(g, seeds, cfg), mergeMode).search()

  def run(ctx: SearchContext, mergeMode: BftMerge): SearchOutcome =
    new BftEngine(ctx, mergeMode).search()
}

private final class BftEngine(ctx: SearchContext, mergeMode: BftMerge) {
  import ctx.{g, cfg}
  require(!cfg.uni, "UNI is not supported by the BFT baselines")
  require(!ctx.continueAfterResult, "N seed sets are not supported by BFT")

  // FIFO queue keeps generation order for Grow; merges may jump ahead,
  // exactly as §4.3 describes.
  private val queue = mutable.ArrayDeque.empty[STree]
  private val hist = mutable.HashSet.empty[EdgeSet]
  // Merge partner index: node -> trees containing that node.
  private val byNode = mutable.HashMap.empty[Int, mutable.ArrayBuffer[STree]]

  private val budget = new SearchBudget(cfg)
  import budget.{checkClock, done}

  /** Admits a freshly built tree: dedups on its edge set, reports (after
    * minimization) when full-sat, else stores, indexes and enqueues it.
    * Returns the tree when admitted and mergeable.
    */
  private def admit(t: STree): Option[STree] = {
    budget.provenances += 1
    checkClock()
    // INIT trees all share the empty edge set; they are deduped by node
    // at the call site, not via the history.
    if (!t.edges.isEmpty && !hist.add(t.edges)) { budget.pruned += 1; return None }
    budget.kept += 1
    if (ctx.isResult(t)) {
      // §4.1: minimize, then report; minimization may reveal a duplicate.
      budget.addResult(ctx.toFound(ctx.minimize(t), t.seeds))
      None
    } else {
      queue.append(t)
      t.nodes.foreach(n =>
        byNode.getOrElseUpdate(n, mutable.ArrayBuffer.empty) += t)
      Some(t)
    }
  }

  /** Merges `t` with every stored tree it shares exactly one node with,
    * at that node; returns the admitted merged trees.
    */
  private def mergeWith(t: STree): List[STree] = {
    var produced: List[STree] = Nil
    // Insertion-ordered: the merge order, and with it the counters, must
    // not depend on the trees' identity hashes.
    val cand = mutable.LinkedHashSet.empty[STree]
    t.nodes.foreach(n => byNode.get(n).foreach(_.foreach(cand += _)))
    val it = cand.iterator
    while (it.hasNext && !done) {
      val p = it.next()
      val shared = if (p ne t) IntSetOps.singleCommon(t.nodes, p.nodes) else -1
      if (shared >= 0 && ctx.canMerge(t, p, shared)) {
        budget.merges += 1
        admit(ctx.merge(t, p)).foreach(m => produced = m :: produced)
      }
      checkClock()
    }
    produced
  }

  def search(): SearchOutcome = {
    ctx.seedSets.flatten.distinct.foreach { s =>
      if (!done) admit(ctx.init(s))
    }

    while (queue.nonEmpty && !done) {
      val t = queue.removeHead()
      // Grow from every node of the tree, with every incident edge.
      var ni = 0
      while (ni < t.nodes.length && !done) {
        val n = t.nodes(ni)
        val es = g.adj(n)
        var ei = 0
        while (ei < es.length && !done) {
          val e = es(ei)
          if (ctx.canGrow(t, n, e)) {
            budget.grows += 1
            admit(ctx.grow(t, n, e)) match {
              case Some(gt) =>
                mergeMode match {
                  case BftMerge.None => ()
                  case BftMerge.Single => mergeWith(gt)
                  case BftMerge.Aggressive =>
                    var wl = mergeWith(gt)
                    while (wl.nonEmpty && !done) {
                      val h = wl.head; wl = wl.tail
                      wl = mergeWith(h) ::: wl
                    }
                }
              case None => ()
            }
          }
          ei += 1
        }
        ni += 1
      }
    }
    budget.outcome()
  }
}
