package repro.gen

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.{GEdge, GNode, InMemoryGraph, PropertyGraph}
import repro.ctp.{NodeSeeds, SeedSpec}

/** A generated graph plus the CTP seed sets its benchmark query uses. */
final case class GeneratedGraph(
    nodes: Vector[GNode],
    edges: Vector[GEdge],
    seedSets: Seq[Seq[Long]],
) {
  def toPropertyGraph(spark: SparkSession): PropertyGraph =
    PropertyGraph.fromSeqs(spark, nodes, edges)
  def toInMemory: InMemoryGraph =
    InMemoryGraph.fromSeqs(nodes.map(_.id), edges)
  def seedSpecs: Seq[SeedSpec] = seedSets.map(NodeSeeds(_))
}

/** Bookkeeping for CDF graphs (§5.3) used by the EQL benchmarks. */
final case class CdfInfo(
    topCLeaves: Vector[Long],        // all targets of "c" edges
    eligibleTopLeaves: Vector[Long], // the 50% that may carry links
    bottomGLeaves: Vector[Long],     // all targets of "g" edges
    bottomHLeaves: Vector[Long],     // all targets of "h" edges
    numLinks: Int,
)

/** Synthetic graph generators reproducing §5.3's parameterized families
  * (Line, Comb, Star, the Fig. 2 chain, CDF) plus a zipf-heterogeneous
  * knowledge graph standing in for the YAGO3/DBPedia subsets.
  *
  * All generators are deterministic in their parameters (and `seed`).
  * Seed nodes carry `ntype = "seed"` and labels "A", "B", … mirroring
  * the paper's figures; each seed forms its own 1-node seed set.
  */
object GraphGen {

  private def seedLabel(i: Int): String =
    if (i < 26) ('A' + i).toChar.toString else s"S$i"

  /** Node, edge and seed buffers of the Line, Comb and Star generators.
    * Node and edge ids count up from 0 in insertion order; the i-th seed
    * gets `seedLabel(i)`. Edge directions alternate deterministically, so
    * bidirectional traversal (requirement R3) is genuinely exercised.
    */
  private final class Builder {
    private val nodes = mutable.ArrayBuffer.empty[GNode]
    private val edges = mutable.ArrayBuffer.empty[GEdge]
    private val seeds = mutable.ArrayBuffer.empty[Long]

    def node(label: String, ntype: String = ""): Long = {
      nodes += GNode(nodes.length.toLong, label, ntype); nodes.length - 1L
    }

    def seed(): Long = { val s = node(seedLabel(seeds.length), "seed"); seeds += s; s }

    def edge(a: Long, b: Long): Unit = {
      val eid = edges.length.toLong
      edges += (if (eid % 2 == 0) GEdge(eid, a, "r", b) else GEdge(eid, b, "r", a))
    }

    /** A path from `from` through new nodes labelled `labels`; returns its
      * last node (`from` itself when `labels` is empty).
      */
    def path(from: Long, labels: Seq[String]): Long =
      labels.foldLeft(from) { (prev, l) => val x = node(l); edge(prev, x); x }

    /** [[path]], then one more edge to a new seed; returns the seed. */
    def ray(from: Long, labels: Seq[String]): Long = {
      val last = path(from, labels)
      val s = seed(); edge(last, s); s
    }

    def result: GeneratedGraph =
      GeneratedGraph(nodes.toVector, edges.toVector, seeds.map(Seq(_)).toSeq)
  }

  /** Line(m, nL): m seeds in a row, nL intermediary nodes between
    * consecutive seeds (sL = nL+1 edges per gap).
    */
  def line(m: Int, nL: Int): GeneratedGraph = {
    require(m >= 2 && nL >= 0)
    val b = new Builder
    var prev = b.seed()
    for (i <- 1 until m) prev = b.ray(prev, (0 until nL).map(j => s"n${i}_$j"))
    b.result
  }

  /** Comb(nA, nS, sL, dBA): a main line of nA anchor seeds (dBA
    * intermediary nodes between consecutive anchors); from each anchor a
    * bristle of nS segments, each segment sL edges long and ending in a
    * seed. m = nA · (nS + 1) seeds total.
    */
  def comb(nA: Int, nS: Int, sL: Int, dBA: Int): GeneratedGraph = {
    require(nA >= 1 && nS >= 0 && sL >= 1 && dBA >= 0)
    val b = new Builder
    var prevAnchor = -1L
    for (a <- 0 until nA) {
      val anchor = b.seed()
      if (prevAnchor >= 0) b.edge(b.path(prevAnchor, (0 until dBA).map(j => s"m${a}_$j")), anchor)
      prevAnchor = anchor
      var prev = anchor
      for (s <- 0 until nS) prev = b.ray(prev, (0 until sL - 1).map(j => s"b${a}_${s}_$j"))
    }
    b.result
  }

  /** Star(m, sL): a central node with m rays of sL edges, each ending in
    * a seed. The result is a (m, center) rooted merge (Def. 4.8).
    */
  def star(m: Int, sL: Int): GeneratedGraph = {
    require(m >= 2 && sL >= 1)
    val b = new Builder
    val center = b.node("center")
    for (i <- 0 until m) b.ray(center, (0 until sL - 1).map(j => s"r${i}_$j"))
    b.result
  }

  /** The Fig. 2 chain: n+1 nodes, 2 parallel edges between consecutive
    * nodes; the 2-seed CTP over its ends has exactly 2^n results.
    */
  def chain(n: Int): GeneratedGraph = {
    require(n >= 1)
    val nodes = (0L to n.toLong).map(i =>
      GNode(i, if (i == 0 || i == n) seedLabel(if (i == 0) 0 else 1) else s"n$i",
        if (i == 0 || i == n) "seed" else "")).toVector
    val edges = (0 until n).flatMap { i =>
      Seq(GEdge(2L * i, i.toLong, "r", i + 1L), GEdge(2L * i + 1, i.toLong, "r", i + 1L))
    }.toVector
    GeneratedGraph(nodes, edges, Seq(Seq(0L), Seq(n.toLong)))
  }

  /** CDF (Connected Dense Forest, §5.3): N_T complete binary trees of 7
    * nodes in a top and a bottom forest, plus N_L links of S_L triples.
    *
    * Top tree edges: root -"b"-> child -"c"-> leaf. Bottom tree edges:
    * root -"f"-> child, then one "g" and one "h" leaf per child. Links
    * (label "x") are directed top-to-bottom. For m=2 a link is a chain
    * from an eligible top "c"-leaf to an eligible bottom "g"-leaf; for
    * m=3 it is a Y: a stem of S_L−2 edges then two edges to a sibling
    * ("g","h") leaf pair. Eligibility: 50% of top "c"-leaves (and for
    * m=2, 50% of bottom "g"-leaves); links spread uniformly (by `seed`).
    */
  def cdf(m: Int, nT: Int, nL: Int, sL: Int, seed: Long = 7L): (GeneratedGraph, CdfInfo) = {
    require(m == 2 || m == 3, "CDF is generated for m in {2,3}")
    require(sL >= 2 && nT >= 1 && nL >= 0)
    val rnd = new Random(seed)
    val nodes = mutable.ArrayBuffer.empty[GNode]
    val edges = mutable.ArrayBuffer.empty[GEdge]
    var id = 0L; var eid = 0L
    def addNode(lbl: String): Long = { nodes += GNode(id, lbl, ""); id += 1; id - 1 }
    def addEdge(a: Long, l: String, b: Long): Unit = { edges += GEdge(eid, a, l, b); eid += 1 }

    val topCLeaves = mutable.ArrayBuffer.empty[Long]
    val bottomG = mutable.ArrayBuffer.empty[Long]
    val bottomH = mutable.ArrayBuffer.empty[Long]
    val siblings = mutable.HashMap.empty[Long, Long] // g-leaf -> its h sibling

    for (t <- 0 until nT) {
      val root = addNode(s"tr$t")
      for (c <- 0 until 2) {
        val child = addNode(s"tc${t}_$c"); addEdge(root, "b", child)
        for (l <- 0 until 2) {
          val leaf = addNode(s"tl${t}_${c}_$l"); addEdge(child, "c", leaf)
          topCLeaves += leaf
        }
      }
    }
    for (t <- 0 until nT) {
      val root = addNode(s"br$t")
      for (c <- 0 until 2) {
        val child = addNode(s"bc${t}_$c"); addEdge(root, "f", child)
        val gLeaf = addNode(s"bg${t}_$c"); addEdge(child, "g", gLeaf); bottomG += gLeaf
        val hLeaf = addNode(s"bh${t}_$c"); addEdge(child, "h", hLeaf); bottomH += hLeaf
        siblings(gLeaf) = hLeaf
      }
    }
    // 50% eligibility, deterministically (every other leaf).
    val eligTop = topCLeaves.zipWithIndex.collect { case (n, i) if i % 2 == 0 => n }
    val eligG =
      if (m == 2) bottomG.zipWithIndex.collect { case (n, i) if i % 2 == 0 => n }
      else bottomG // m=3: 50% of all bottom leaves = all g/h sibling pairs
    for (_ <- 0 until nL) {
      val tl = eligTop(rnd.nextInt(eligTop.size))
      val bg = eligG(rnd.nextInt(eligG.size))
      if (m == 2) {
        var prev = tl
        for (j <- 0 until sL - 1) { val x = addNode(s"x$eid"); addEdge(prev, "x", x); prev = x }
        addEdge(prev, "x", bg)
      } else {
        var prev = tl
        for (j <- 0 until sL - 2) { val x = addNode(s"x$eid"); addEdge(prev, "x", x); prev = x }
        addEdge(prev, "x", bg)
        addEdge(prev, "x", siblings(bg))
      }
    }
    val g = GeneratedGraph(nodes.toVector, edges.toVector, Seq.empty)
    (g, CdfInfo(topCLeaves.toVector, eligTop.toVector, bottomG.toVector,
      bottomH.toVector, nL))
  }

  /** Zipf-heterogeneous knowledge graph — the stand-in for the paper's
    * YAGO3 (6M) / DBPedia (18M) subsets, at a container-friendly scale.
    * Weakly connected by a random backbone; extra edges target low ids
    * with zipf-ish skew (hubs); ~`nLabels` edge labels, zipf-distributed;
    * node types drawn from `nTypes` type names.
    */
  def kgraph(numNodes: Int, extraEdges: Int, nLabels: Int = 40,
             nTypes: Int = 12, seed: Long = 11L): GeneratedGraph = {
    require(numNodes >= 2)
    val rnd = new Random(seed)
    def zipfIdx(n: Int, alpha: Double): Int = {
      // inverse-CDF over 1/k^alpha ranks; cheap and skewed enough.
      val u = rnd.nextDouble()
      val k = math.pow(1.0 / (u + 1e-9), 1.0 / alpha)
      math.min(n - 1, math.max(0, k.toInt - 1))
    }
    val nodes = (0 until numNodes).map { i =>
      GNode(i.toLong, s"e$i", s"t${rnd.nextInt(nTypes)}")
    }.toVector
    val edges = mutable.ArrayBuffer.empty[GEdge]
    var eid = 0L
    def lbl(): String = s"p${zipfIdx(nLabels, 1.2)}"
    for (i <- 1 until numNodes) {
      val j = rnd.nextInt(i)
      if (rnd.nextBoolean()) edges += GEdge(eid, i.toLong, lbl(), j.toLong)
      else edges += GEdge(eid, j.toLong, lbl(), i.toLong)
      eid += 1
    }
    for (_ <- 0 until extraEdges) {
      val a = rnd.nextInt(numNodes)
      val b = zipfIdx(numNodes, 1.1)
      if (a != b) { edges += GEdge(eid, a.toLong, lbl(), b.toLong); eid += 1 }
    }
    GeneratedGraph(nodes, edges.toVector, Seq.empty)
  }
}
