package repro.ctp

/** Small utilities over strictly-increasing Int arrays, used as compact
  * node/edge sets inside search trees. Trees in CTP search are small
  * (tens of edges) while there can be millions of them, so sorted arrays
  * with cached hashes beat general-purpose sets by a wide margin.
  */
object IntSetOps {

  /** Membership in a sorted array. */
  def contains(a: Array[Int], x: Int): Boolean =
    java.util.Arrays.binarySearch(a, x) >= 0

  /** Inserts `x` into sorted `a` (x must not already be present). */
  def insert(a: Array[Int], x: Int): Array[Int] = {
    val pos = {
      val i = java.util.Arrays.binarySearch(a, x)
      require(i < 0, s"duplicate insert of $x")
      -i - 1
    }
    val out = new Array[Int](a.length + 1)
    System.arraycopy(a, 0, out, 0, pos)
    out(pos) = x
    System.arraycopy(a, pos, out, pos + 1, a.length - pos)
    out
  }

  /** Sorted union of two disjoint-or-overlapping sorted arrays. */
  def union(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](a.length + b.length)
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) { out(k) = a(i); i += 1 }
      else if (a(i) > b(j)) { out(k) = b(j); j += 1 }
      else { out(k) = a(i); i += 1; j += 1 }
      k += 1
    }
    while (i < a.length) { out(k) = a(i); i += 1; k += 1 }
    while (j < b.length) { out(k) = b(j); j += 1; k += 1 }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** The single common element of two sorted arrays, or -1 when they
    * share zero or more than one element.
    */
  def singleCommon(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0; var found = -1
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else {
        if (found >= 0) return -1
        found = a(i); i += 1; j += 1
      }
    }
    found
  }

  /** True iff the only common element of `a` and `b` is `x`. */
  def intersectOnlyAt(a: Array[Int], b: Array[Int], x: Int): Boolean = {
    var i = 0; var j = 0; var sawX = false
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else {
        if (a(i) != x) return false
        sawX = true; i += 1; j += 1
      }
    }
    sawX
  }
}

/** An immutable set of (dense) edge indices forming a search tree, with
  * a cached hash — the unit of ESP deduplication (Def. 4.2/4.3).
  */
final class EdgeSet private (val edges: Array[Int]) {
  override val hashCode: Int = java.util.Arrays.hashCode(edges)
  override def equals(o: Any): Boolean = o match {
    case e: EdgeSet => (e eq this) ||
      (e.hashCode == hashCode && java.util.Arrays.equals(edges, e.edges))
    case _ => false
  }
  def size: Int = edges.length
  def isEmpty: Boolean = edges.length == 0
  def contains(e: Int): Boolean = IntSetOps.contains(edges, e)
  def +(e: Int): EdgeSet = new EdgeSet(IntSetOps.insert(edges, e))
  def ++(o: EdgeSet): EdgeSet = new EdgeSet(IntSetOps.union(edges, o.edges))
  override def toString: String = edges.mkString("{", ",", "}")
}

object EdgeSet {
  val empty: EdgeSet = new EdgeSet(Array.emptyIntArray)
  def of(es: Int*): EdgeSet = sorted(es.toArray.sorted)
  /** Wraps an already strictly-increasing array (not copied). */
  def sorted(es: Array[Int]): EdgeSet = new EdgeSet(es)
}

/** A search tree: a set of edges plus (for GAM-family algorithms) a
  * distinguished root, mirroring Def. 4.1's "tree with provenance".
  *
  * @param root       dense node index of the provenance root, the one
  *                   node where the GAM family grows and merges the tree;
  *                   the BFT family grows and merges at any tree node and
  *                   does not read it
  * @param edges      edge set of the tree
  * @param nodes      sorted dense node indices of the tree
  * @param sat        bitmask over seed-set indices with a seed in the tree
  * @param seeds      per seed-set index: the dense node index of the seed
  *                   bound in this tree, or -1 (length = m)
  * @param isSeedPath true iff this is an (root, s)-rooted path, i.e. a
  *                   Grow-only chain from INIT(s) whose only seed is s
  *                   (Def. 4.4) — drives the `ss_n` signature updates
  * @param isMo       true iff the provenance contains a Mo re-rooting
  *                   (§4.5): Grow is disabled on such trees
  */
final class STree(
    val root: Int,
    val edges: EdgeSet,
    val nodes: Array[Int],
    val sat: Long,
    val seeds: Array[Int],
    val isSeedPath: Boolean,
    val isMo: Boolean,
) {
  def size: Int = edges.size
  def containsNode(n: Int): Boolean = IntSetOps.contains(nodes, n)
  /** Number of seed sets satisfied. */
  def satCount: Int = java.lang.Long.bitCount(sat)
  override def toString: String =
    s"STree(root=$root, edges=$edges, sat=${sat.toBinaryString})"
}
