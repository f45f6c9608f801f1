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

  private val results = mutable.ArrayBuffer.empty[FoundTree]
  private val resultKeys = mutable.HashSet.empty[String]

  private var provenances = 0L
  private var kept = 0L
  private var grows = 0L
  private var merges = 0L
  private var pruned = 0L
  private var opCount = 0L
  private var timedOut = false
  private var deadlineNanos = 0L

  private def done: Boolean = results.size >= cfg.limit || timedOut

  private def checkClock(): Unit = {
    opCount += 1
    if ((opCount & 0x3ff) == 0L && System.nanoTime() > deadlineNanos)
      timedOut = true
  }

  /** Admits a freshly built tree: dedups on its edge set, reports (after
    * minimization) when full-sat, else stores, indexes and enqueues it.
    * Returns the tree when admitted and mergeable.
    */
  private def admit(t: STree): Option[STree] = {
    provenances += 1
    checkClock()
    // INIT trees all share the empty edge set; they are deduped by node
    // at the call site, not via the history.
    if (!t.edges.isEmpty && !hist.add(t.edges)) { pruned += 1; return None }
    kept += 1
    if (ctx.isResult(t)) {
      // §4.1: minimize, then report; minimization may reveal a duplicate.
      val minimized = ctx.minimize(t)
      val f = ctx.toFound(minimized, t.seeds)
      if (resultKeys.add(f.treeKey)) results += f
      None
    } else {
      queue.append(t)
      t.nodes.foreach(n =>
        byNode.getOrElseUpdate(n, mutable.ArrayBuffer.empty) += t)
      Some(t)
    }
  }

  /** Merge partners of `t`: stored trees sharing exactly one node with
    * `t`, with disjoint sat (the BFT analogue of Merge1/Merge2).
    */
  private def mergeWith(t: STree): List[STree] = {
    var produced: List[STree] = Nil
    val cand = mutable.HashSet.empty[STree]
    t.nodes.foreach(n => byNode.get(n).foreach(_.foreach(cand += _)))
    val it = cand.iterator
    while (it.hasNext && !done) {
      val p = it.next()
      // Share exactly one node; sats may overlap only on that node's own
      // seed sets (see the (Merge2) note in SearchContext.canMerge).
      val shared = if (p ne t) IntSetOps.singleCommon(t.nodes, p.nodes) else -1
      if ((p ne t) && shared >= 0 &&
          (p.sat & t.sat & ~ctx.seedMask(shared)) == 0L &&
          t.size + p.size <= cfg.maxEdges) {
        merges += 1
        val seeds = new Array[Int](ctx.m)
        var i = 0
        while (i < ctx.m) {
          seeds(i) = if (t.seeds(i) >= 0) t.seeds(i) else p.seeds(i)
          i += 1
        }
        val merged = new STree(-1, t.edges ++ p.edges,
          IntSetOps.union(t.nodes, p.nodes), t.sat | p.sat, seeds,
          isSeedPath = false, isMo = false)
        admit(merged).foreach(m => produced = m :: produced)
      }
      checkClock()
    }
    produced
  }

  def search(): SearchOutcome = {
    val t0 = System.nanoTime()
    deadlineNanos =
      if (cfg.timeoutMs >= Long.MaxValue / 2000000L) Long.MaxValue
      else t0 + cfg.timeoutMs * 1000000L

    ctx.seedSets.flatten.distinct.foreach { s =>
      if (!done) {
        val t = ctx.init(s)
        admit(new STree(-1, t.edges, t.nodes, t.sat, t.seeds,
          isSeedPath = false, isMo = false))
      }
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
          val n1 = g.other(e, n)
          if (n1 != n && ctx.edgeAllowed(e) && t.size + 1 <= cfg.maxEdges &&
              !t.containsNode(n1) &&              // (Grow1)
              (ctx.seedMask(n1) & t.sat) == 0L && // (Grow2)
              !t.edges.contains(e)) {
            grows += 1
            val msk = ctx.seedMask(n1)
            val seeds =
              if (msk == 0L) t.seeds
              else {
                val s = t.seeds.clone()
                var mm = msk; var k = 0
                while (mm != 0L) { if ((mm & 1L) != 0L) s(k) = n1; mm >>>= 1; k += 1 }
                s
              }
            val grown = new STree(-1, t.edges + e, IntSetOps.insert(t.nodes, n1),
              t.sat | msk, seeds, isSeedPath = false, isMo = false)
            admit(grown) match {
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
    val elapsed = (System.nanoTime() - t0) / 1e6
    SearchOutcome(
      ctx.applyTopK(results.toVector),
      SearchStats(provenances, kept, grows, merges, pruned, elapsed, timedOut))
  }
}
