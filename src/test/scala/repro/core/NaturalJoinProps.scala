package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DataType, LongType, StringType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.forAll
import repro.SparkSpec

/** Step (C) on the driver against Spark as the oracle: for random small
  * relations, `naturalJoin` + head projection + `distinct` equals, as a
  * set, Spark's `join(usingColumns)`/`crossJoin` in body order +
  * `select` + `distinct`.
  */
object NaturalJoinProps extends Properties("NaturalJoin") {
  import EqlEvaluator.Relation

  // Each Spark check runs a few small jobs; 50 cases keep this under ~20 s.
  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(50)

  /** Column names with one type each, as an EQL variable has: node ids
    * are Longs, trees Strings.
    */
  private val columnTypes: Seq[(String, DataType)] =
    Seq("a" -> LongType, "b" -> LongType, "c" -> LongType, "s" -> StringType, "t" -> StringType)

  /** Few distinct values, so rows repeat and joins match. */
  private def value(t: DataType): Gen[Any] =
    if (t == LongType) Gen.choose(0L, 3L) else Gen.oneOf("u", "v", "w")

  private val relation: Gen[Relation] = for {
    k      <- Gen.choose(1, 3)
    fields <- Gen.pick(k, columnTypes)
    schema  = StructType(fields.toSeq.map { case (n, t) => StructField(n, t) })
    n      <- Gen.oneOf(Gen.const(0), Gen.choose(1, 8))
    rows   <- Gen.listOfN(n, Gen.sequence[Seq[Any], Any](schema.fields.toSeq.map(f => value(f.dataType))))
  } yield Relation(schema, rows.map(Row.fromSeq).toArray)

  private val body: Gen[(Seq[Relation], Seq[String])] = for {
    k    <- Gen.choose(1, 4)
    rels <- Gen.listOfN(k, relation)
    cols  = rels.flatMap(_.schema.fieldNames).distinct
    m    <- Gen.choose(1, cols.size)
    head <- Gen.pick(m, cols)
  } yield (rels, head.toSeq)

  private def sparkJoin(rels: Seq[Relation], head: Seq[String]): Set[Seq[Any]] = {
    val spark = SparkSpec.shared
    def df(r: Relation): DataFrame = spark.createDataFrame(java.util.Arrays.asList(r.rows: _*), r.schema)
    val joined = rels.tail.foldLeft(df(rels.head)) { (acc, r) =>
      val shared = r.schema.fieldNames.toSeq.filter(acc.columns.contains)
      if (shared.isEmpty) acc.crossJoin(df(r)) else acc.join(df(r), shared)
    }
    joined.select(head.map(joined.col): _*).distinct().collect().map(_.toSeq).toSet
  }

  property("naturalJoin + project = Spark join + select + distinct") = forAll(body) {
    case (rels, head) =>
      val ours = EqlEvaluator.naturalJoin(rels).project(head)
      val rows = ours.rows.map(_.toSeq)
      Prop(ours.schema.fieldNames.toSeq == head) :| "head columns" &&
        Prop(rows.distinct.length == rows.length) :| "distinct" &&
        Prop(rows.toSet == sparkJoin(rels, head)) :| "rows"
  }
}
