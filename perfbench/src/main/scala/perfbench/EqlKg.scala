package perfbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.{EqlOptions, PropertyGraph}
import repro.gen.GraphGen

/** `eql-kg`: the Table 1 query shapes on the YAGO3 substitute
  * (`GraphGen.kgraph`, 10K nodes, about 30K edges; the graph is the one
  * Table 1 uses). A round is one J1, one J2 and one J3 query.
  *
  *  - J1: three single-pattern BGPs in separate components, two
  *    UNI/LABEL/MAX 3 CTPs chaining them.
  *  - J2: a large seed set from a type-only BGP against a small one from a
  *    three-digit label-prefix BGP, skewed enough for §4.9's balanced queues.
  *  - J3: one CTP from the node labelled `e3` to the all-nodes set N.
  *
  * J1 and J2 draw their type and label-prefix constants from the seed, and
  * J1 the order of its edge labels (two "p0", one "p1"); no two of a
  * run's queries share a BGP. J3 is the same query in every round. It
  * fails its check every time: under UNI with an all-nodes member the
  * search only finds paths whose edges all point towards the seed. That
  * exact answer counts as the known failure; any other is incorrect.
  */
final class EqlKg(seed: Long, localDir: String, traced: Boolean) extends Workload {
  import EqlKg._

  val warmupRounds = 1
  private var spark: SparkSession = _
  private var listener: LayerListener = _
  private var runner: EqlRun = _
  private val gen = GraphGen.kgraph(10000, 20000, seed = 13)
  private lazy val ref = RefGraph(gen.nodes, gen.edges)
  private val rnd = new Random(seed)
  private val usedBgps = mutable.HashSet.empty[String]

  def setUp(): Unit = {
    spark = SparkSide.session(localDir)
    if (traced) { listener = new LayerListener; spark.sparkContext.addSparkListener(listener) }
    val pg = PropertyGraph.fromSeqs(spark, gen.nodes, gen.edges).cached()
    pg.numNodes; pg.numEdges
    runner = new EqlRun(spark, pg, listener, EqlOptions())
  }

  /** Draws a BGP key not used before in this run; None when none is left. */
  private def freshBgp(options: Seq[String]): Option[String] = {
    val left = options.filterNot(usedBgps)
    if (left.isEmpty) None
    else { val k = left(rnd.nextInt(left.size)); usedBgps += k; Some(k) }
  }

  /** Candidate constants whose BGP sizes lie near the median size of
    * their kind, so that queries drawn from different seeds cost about
    * the same. Sizes come from the generated lists.
    */
  private def nearMedian(keys: Seq[String], size: String => Int, within: Double): Seq[String] = {
    val sizes = keys.map(k => k -> size(k))
    val med = sizes.map(_._2).sorted.apply(sizes.size / 2)
    sizes.collect { case (k, n) if math.abs(n - med) <= within * med => k }
  }
  private lazy val j1Keys: Map[String, Seq[String]] = Seq("p0", "p1").map { l =>
    l -> nearMedian(for (t <- 0 until 12; d <- 1 to 9) yield s"t$t|e$d|$l", { k =>
      val Array(t, p, _) = k.split('|')
      gen.edges.count(e => e.label == l && gen.nodes(e.src.toInt).ntype == t &&
        gen.nodes(e.src.toInt).label.startsWith(p))
    }, 0.08)
  }.toMap
  private lazy val j2xKeys = nearMedian((0 until 12).map(t => s"t$t|p0"),
    k => ref.sourcesOf(_.ntype == k.takeWhile(_ != '|'), _ == "p0").size, 0.05)
  private lazy val j2yKeys = nearMedian((100 to 999).map(d => s"e$d"),
    p => ref.nodes.iterator.filter(_.label.startsWith(p)).map(v => ref.out(v.id.toInt).length).sum, 0.05)

  def round(r: Int): Option[Seq[Op]] = {
    // J1: edge labels p0, p0, p1 in a seed-chosen order, distinct (type, prefix, label).
    val j1 = rnd.shuffle(Seq("p0", "p0", "p1")).map(l => freshBgp(j1Keys(l)).map(_.split('|')))
    val j2x = freshBgp(j2xKeys).map(_.split('|'))
    val j2y = freshBgp(j2yKeys)
    if (j1.exists(_.isEmpty) || j2x.isEmpty || j2y.isEmpty) return None
    val Seq(x, y, z) = j1.map(_.get)
    val Array(tx, lx) = j2x.get
    val py = j2y.get
    val checked = r >= 0
    Some(Seq(
      j1Op(x, y, z, checked),
      j2Op(tx, lx, py, checked),
      j3Op(checked)))
  }

  private def op(name: String, text: String, want: => Set[Seq[Any]], checked: Boolean,
                 faulty: => Option[Set[Seq[Any]]] = None): Op =
    new EqlOp(name, text, runner, if (checked) want else Set.empty,
      faulty = if (checked) faulty else None)

  private def j1Op(x: Array[String], y: Array[String], z: Array[String], checked: Boolean): Op = {
    def pat(v: String, k: Array[String]) =
      s"""(type($v)="${k(0)}" & label($v)~"${k(1)}*", "${k(2)}", ${v}n)"""
    val text =
      s"""(x, y, z, w1, w2) :- ${pat("x", x)}, ${pat("y", y)}, ${pat("z", z)},
         |  (x, y, *w1) [UNI, $LabelList, MAX 3],
         |  (y, z, *w2) [UNI, $LabelList, MAX 3]""".stripMargin
    def seeds(k: Array[String]) =
      ref.sourcesOf(v => v.ntype == k(0) && v.label.startsWith(k(1)), _ == k(2))
    op(s"J1 ${x.mkString("/")} ${y.mkString("/")} ${z.mkString("/")}", text, {
      val (sx, sy, sz) = (seeds(x), seeds(y), seeds(z))
      val c1 = RefGraph.uniPaths(ref, sx, Some(sy), CtpLabels, 3)
      val c2 = RefGraph.uniPaths(ref, sy, Some(sz), CtpLabels, 3).groupBy(_._1)
      for ((a, b, w1) <- c1; (_, c, w2) <- c2.getOrElse(b, Set.empty)) yield Seq[Any](a, b, c, w1, w2)
    }, checked)
  }

  private def j2Op(tx: String, lx: String, py: String, checked: Boolean): Op = {
    val text =
      s"""(x, y, w) :- (type(x)="$tx", "$lx", a), (label(y)~"$py*", yl, b),
         |  (x, y, *w) [UNI, $LabelList, MAX 3]""".stripMargin
    op(s"J2 $tx/$lx $py", text, {
      val sx = ref.sourcesOf(_.ntype == tx, _ == lx)
      val sy = ref.sourcesOf(_.label.startsWith(py), _ => true)
      RefGraph.uniPaths(ref, sx, Some(sy), CtpLabels, 3).map { case (a, b, w) => Seq[Any](a, b, w) }
    }, checked)
  }

  /** J3's answer is checked against every UNI path; the program's known
    * wrong answer is the subset of paths whose edges all point towards the
    * seed, and any other answer is incorrect.
    */
  private def j3Op(checked: Boolean): Op = {
    val text = s"""(l) :- (label(s)="e3", n, *l) [UNI, $LabelList, MAX 3]"""
    val s = ref.nodes.filter(_.label == "e3").map(_.id).toSet
    def paths(climbOnly: Boolean) =
      RefGraph.uniPaths(ref, s, None, CtpLabels, 3, climbOnly).map { case (_, _, w) => Seq[Any](w) }
    op("J3 e3", text, paths(climbOnly = false), checked, Some(paths(climbOnly = true)))
  }

  override def close(): Unit = {
    if (listener != null) Console.err.print(listener.report())
    if (spark != null) spark.stop()
  }
}

object EqlKg {
  val CtpLabels: Set[String] = Set("p0", "p1", "p2")
  val LabelList = """LABEL("p0","p1","p2")"""
}
