package repro.ctp

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll

/** ScalaCheck properties for the sorted-set kernel under the trees. */
object IntSetProps extends Properties("IntSetOps") {

  private val sortedArr: Gen[Array[Int]] =
    Gen.listOf(Gen.choose(0, 50)).map(_.distinct.sorted.toArray)

  property("union = set union") = forAll(sortedArr, sortedArr) { (a, b) =>
    IntSetOps.union(a, b).toSeq == (a.toSet ++ b.toSet).toSeq.sorted
  }

  property("insert = set + element") = forAll(sortedArr, Gen.choose(0, 50)) { (a, x) =>
    Prop(!a.contains(x)) ==> {
      IntSetOps.insert(a, x).toSeq == (a.toSet + x).toSeq.sorted
    }
  }

  property("contains = set membership") = forAll(sortedArr, Gen.choose(0, 50)) { (a, x) =>
    IntSetOps.contains(a, x) == a.toSet.contains(x)
  }

  property("singleCommon finds the unique shared element") =
    forAll(sortedArr, sortedArr) { (a, b) =>
      val inter = a.toSet.intersect(b.toSet)
      if (inter.size == 1) IntSetOps.singleCommon(a, b) == inter.head
      else IntSetOps.singleCommon(a, b) == -1
    }

  property("EdgeSet ++ is commutative on content") = forAll(sortedArr, sortedArr) { (a, b) =>
    (EdgeSet.sorted(a) ++ EdgeSet.sorted(b)) == (EdgeSet.sorted(b) ++ EdgeSet.sorted(a))
  }

  property("EdgeSet equality iff same content") = forAll(sortedArr, sortedArr) { (a, b) =>
    (EdgeSet.sorted(a) == EdgeSet.sorted(b)) == (a.toSeq == b.toSeq)
  }
}
