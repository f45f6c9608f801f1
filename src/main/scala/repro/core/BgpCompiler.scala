package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.core.EqlEvaluator.Relation

/** Step (A)'s conjunctive engine (§3): matches BGPs on the graph's
  * in-memory copy ([[PropertyGraph.inMemory]]), the same copy the CTP
  * search runs on (§5.1), so a query on a loaded graph starts no Spark
  * job.
  *
  * Also emits the equivalent DuckDB SQL for the same BGP, so every
  * match can be cross-checked by [[repro.Oracle]].
  *
  * Output: one row per embedding, one column per *user* variable; node
  * variables bind to node ids, edge variables to edge ids. Rows are
  * distinct over the kept columns (Def. 2.10's Φ is a set).
  */
object BgpCompiler {

  private def likePattern(v: String): String = v.replace('*', '%')

  /** Whether a node or edge with this label and type satisfies `c`.
    * Strings compare in code-point order. A null label or type (a node
    * with no row in the nodes table) satisfies no condition; an edge's
    * type is "".
    */
  private[core] def holds(c: Condition, label: String, ntype: String): Boolean = {
    val v = if (c.prop == "label") label else ntype
    v != null && (c.op match {
      case Op.Eq   => v == c.value
      case Op.Lt   => compareCodePoints(v, c.value) < 0
      case Op.Le   => compareCodePoints(v, c.value) <= 0
      case Op.Like => like(v, likePattern(c.value))
    })
  }

  private def condSql(c: Condition, labelExpr: String, typeExpr: String): String = {
    val e = if (c.prop == "label") labelExpr else typeExpr
    val v = if (c.op == Op.Like) likePattern(c.value) else c.value
    s"$e ${c.op.sql} '${v.replace("'", "''")}'"
  }

  private def compareCodePoints(a: String, b: String): Int =
    java.util.Arrays.compare(a.codePoints().toArray, b.codePoints().toArray)

  /** SQL LIKE without an escape character: `%` matches any run of
    * characters, `_` exactly one, every other character itself.
    */
  private def like(s: String, pattern: String): Boolean = {
    val str = s.codePoints().toArray
    val pat = pattern.codePoints().toArray
    // Greedy scan; on a mismatch, let the last `%` absorb one more character.
    var i, j = 0
    var star, mark = -1
    while (i < str.length) {
      if (j < pat.length && (pat(j) == '_' || pat(j) == str(i)) && pat(j) != '%') { i += 1; j += 1 }
      else if (j < pat.length && pat(j) == '%') { star = j; mark = i; j += 1 }
      else if (star >= 0) { mark += 1; i = mark; j = star + 1 }
      else return false
    }
    while (j < pat.length && pat(j) == '%') j += 1
    j == pat.length
  }

  private def holdsAll(conditions: Seq[Condition], label: String, ntype: String): Boolean =
    conditions.forall(holds(_, label, ntype))

  /** The ids of the nodes that satisfy every one of `conditions`, in node
    * index order.
    */
  private[core] def nodesWhere(g: InMemoryGraph, conditions: Seq[Condition]): Array[Long] =
    g.nodeIds.indices.iterator
      .filter(n => holdsAll(conditions, g.nlabel(n), g.ntype(n)))
      .map(g.nodeIds).toArray

  /** One edge pattern as a relation over its distinct variables (source,
    * edge, target), from one scan of the edges. A variable repeated in
    * the pattern, as in `(x, e, x)`, binds equal ids.
    */
  private def patternRelation(g: InMemoryGraph, p: EdgePattern): Relation = {
    val edgeOk = g.labels.map(holdsAll(p.edge.conditions, _, ""))
    def nodeOk(pred: Predicate, n: Int) = holdsAll(pred.conditions, g.nlabel(n), g.ntype(n))
    val vars = p.variables
    val first = vars.map(vars.indexOf)
    val kept = first.distinct
    val rows = g.esrc.indices.iterator
      .filter(e => edgeOk(g.elabel(e)) && nodeOk(p.src, g.esrc(e)) && nodeOk(p.dst, g.edst(e)))
      .map(e => Seq(g.nodeIds(g.esrc(e)), g.edgeIds(e), g.nodeIds(g.edst(e))))
      .filter(ids => ids.indices.forall(i => ids(i) == ids(first(i))))
      .map(ids => Row.fromSeq(kept.map(ids)))
    Relation(StructType(kept.map(i => StructField(vars(i), LongType))), rows.toArray)
  }

  /** A whole BGP: its patterns' natural join (step (C)'s join), projected
    * to the distinct bindings of the user variables.
    */
  private[core] def bindings(g: InMemoryGraph, bgp: Bgp): Relation = {
    require(bgp.patterns.nonEmpty)
    EqlEvaluator.naturalJoin(bgp.patterns.map(patternRelation(g, _))).project(bgp.userVariables)
  }

  /** [[bindings]] on the graph's in-memory copy, as a local DataFrame. */
  def compile(g: PropertyGraph, bgp: Bgp): DataFrame = {
    val r = bindings(g.inMemory, bgp)
    g.nodes.sparkSession.createDataFrame(java.util.Arrays.asList(r.rows: _*), r.schema)
  }

  /** The DuckDB SQL equivalent of [[compile]], over tables
    * `nodes(id,label,ntype)` / `edges(id,src,label,dst)` — used by tests
    * to validate the matcher via the Oracle. All ids compare as
    * strings (the Oracle loads everything as VARCHAR), which is safe
    * because it applies the same equalities on both sides.
    */
  def toDuckSql(bgp: Bgp): String = {
    val from = collection.mutable.ArrayBuffer.empty[String]
    val where = collection.mutable.ArrayBuffer.empty[String]
    var varExpr = Map.empty[String, String]
    bgp.patterns.zipWithIndex.foreach { case (p, i) =>
      from += s"edges e$i"
      p.edge.conditions.foreach(c => where += condSql(c, s"e$i.label", "''"))
      def side(pred: Predicate, endExpr: String, alias: String): Unit = {
        if (pred.conditions.nonEmpty) {
          from += s"nodes $alias"
          where += s"$alias.id = $endExpr"
          pred.conditions.foreach(c => where += condSql(c, s"$alias.label", s"$alias.ntype"))
        }
        varExpr.get(pred.variable) match {
          case Some(e) => where += s"$e = $endExpr"
          case None    => varExpr += pred.variable -> endExpr
        }
      }
      side(p.src, s"e$i.src", s"s$i")
      varExpr.get(p.edge.variable) match {
        case Some(e) => where += s"$e = e$i.id"
        case None    => varExpr += p.edge.variable -> s"e$i.id"
      }
      side(p.dst, s"e$i.dst", s"d$i")
    }
    val sel = bgp.userVariables.map(v => s"${varExpr(v)} AS $v").mkString(", ")
    val cond = if (where.isEmpty) "" else " WHERE " + where.mkString(" AND ")
    s"SELECT DISTINCT $sel FROM ${from.mkString(", ")}$cond"
  }
}
