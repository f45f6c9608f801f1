package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Compiles BGPs to Spark DataFrame (Catalyst) plans over a
  * [[PropertyGraph]] — the conjunctive-engine substrate of the paper's
  * step (A) (§3; they delegate to PostgreSQL, we delegate to Spark SQL).
  *
  * Also emits the equivalent DuckDB SQL for the same BGP, so every
  * compiled plan can be cross-checked by [[repro.Oracle]].
  *
  * Output: one row per embedding, one column per *user* variable; node
  * variables bind to node ids, edge variables to edge ids. Rows are
  * distinct over the kept columns (Def. 2.10's Φ is a set).
  */
object BgpCompiler {

  private def likePattern(v: String): String = v.replace('*', '%')

  /** One condition `p(v) op c` as a Catalyst predicate over the columns
    * holding the variable's label and type. Shared with the evaluator's
    * seed-set filter.
    */
  private[core] def condColumn(c: Condition, labelCol: Column, typeCol: Column): Column = {
    val col = if (c.prop == "label") labelCol else typeCol
    c.op match {
      case Op.Eq   => col === c.value
      case Op.Lt   => col < c.value
      case Op.Le   => col <= c.value
      case Op.Like => col.like(likePattern(c.value))
    }
  }

  private def condSql(c: Condition, labelExpr: String, typeExpr: String): String = {
    val e = if (c.prop == "label") labelExpr else typeExpr
    val v = if (c.op == Op.Like) likePattern(c.value) else c.value
    s"$e ${c.op.sql} '${v.replace("'", "''")}'"
  }

  /** Compiles one edge pattern: a DataFrame with columns `_s$i`, `_e$i`,
    * `_d$i` (node/edge ids) filtered by the three predicates.
    */
  private def compilePattern(g: PropertyGraph, p: EdgePattern, i: Int): DataFrame = {
    var df = g.edges.select(
      col("id") as s"_e$i", col("src") as s"_s$i",
      col("label") as s"_l$i", col("dst") as s"_d$i")
    // Edge predicate: label conditions on the edge's own label; edges
    // carry no type, so the type property is the empty string.
    p.edge.conditions.foreach { c =>
      df = df.filter(condColumn(c, col(s"_l$i"), lit("")))
    }
    def joinNode(pred: Predicate, endCol: String, alias: String): Unit =
      if (pred.conditions.nonEmpty) {
        var nd = g.nodes.select(
          col("id") as s"_${alias}id", col("label") as s"_${alias}l",
          col("ntype") as s"_${alias}t")
        pred.conditions.foreach { c =>
          nd = nd.filter(condColumn(c, col(s"_${alias}l"), col(s"_${alias}t")))
        }
        df = df.join(nd, col(endCol) === col(s"_${alias}id"))
          .drop(s"_${alias}id", s"_${alias}l", s"_${alias}t")
      }
    joinNode(p.src, s"_s$i", s"s$i")
    joinNode(p.dst, s"_d$i", s"d$i")
    if (p.src.variable == p.dst.variable)
      df = df.filter(col(s"_s$i") === col(s"_d$i"))
    df
  }

  /** Compiles a whole BGP: joins its patterns on shared variables and
    * projects the distinct bindings of the user variables.
    */
  def compile(g: PropertyGraph, bgp: Bgp): DataFrame = {
    require(bgp.patterns.nonEmpty)
    // Join patterns in BFS order over shared user variables, renaming
    // per-pattern columns to variable names as we go.
    var varCol = Map.empty[String, String] // variable -> column name so far
    var acc: DataFrame = null
    val remaining = collection.mutable.ArrayBuffer(bgp.patterns.zipWithIndex: _*)
    while (remaining.nonEmpty) {
      val idx = if (acc == null) 0 else {
        val j = remaining.indexWhere { case (p, _) =>
          p.variables.exists(varCol.contains)
        }
        if (j >= 0) j else 0 // disconnected within a component is impossible, but stay safe
      }
      val (p, i) = remaining.remove(idx)
      var df = compilePattern(g, p, i)
      val bindings = Seq(
        p.src.variable -> s"_s$i", p.edge.variable -> s"_e$i", p.dst.variable -> s"_d$i")
      // Join on variables already bound.
      val joinConds = bindings.collect {
        case (v, c) if varCol.contains(v) => col(varCol(v)) === col(c)
      }
      acc =
        if (acc == null) df
        else if (joinConds.nonEmpty) acc.join(df, joinConds.reduce(_ && _))
        else acc.crossJoin(df)
      bindings.foreach { case (v, c) => if (!varCol.contains(v)) varCol += v -> c }
    }
    val kept = bgp.userVariables
    acc.select(kept.map(v => col(varCol(v)) as v): _*).distinct()
  }

  /** The DuckDB SQL equivalent of [[compile]], over tables
    * `nodes(id,label,ntype)` / `edges(id,src,label,dst)` — used by tests
    * to validate the Catalyst plan via the Oracle. All ids compare as
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
