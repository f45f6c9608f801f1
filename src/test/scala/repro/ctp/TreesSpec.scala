package repro.ctp

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TreesSpec extends AnyFunSuite {

  test("IntSetOps.insert keeps order and rejects duplicates") {
    val a = Array(1, 4, 9)
    assert(IntSetOps.insert(a, 5).toSeq == Seq(1, 4, 5, 9))
    assert(IntSetOps.insert(a, 0).toSeq == Seq(0, 1, 4, 9))
    assert(IntSetOps.insert(a, 12).toSeq == Seq(1, 4, 9, 12))
    assertThrows[IllegalArgumentException](IntSetOps.insert(a, 4))
  }

  test("IntSetOps.union merges sorted arrays") {
    assert(IntSetOps.union(Array(1, 3), Array(2, 4)).toSeq == Seq(1, 2, 3, 4))
    assert(IntSetOps.union(Array(), Array(2)).toSeq == Seq(2))
    assert(IntSetOps.union(Array(1, 2), Array(2, 3)).toSeq == Seq(1, 2, 3))
  }

  test("IntSetOps.singleCommon") {
    assert(IntSetOps.singleCommon(Array(1, 2), Array(2, 3)) == 2)
    assert(IntSetOps.singleCommon(Array(1, 2, 3), Array(2, 3)) == -1)
    assert(IntSetOps.singleCommon(Array(1), Array(2)) == -1)
  }

  test("IntSetOps.intersectOnlyAt") {
    assert(IntSetOps.intersectOnlyAt(Array(1, 5), Array(0, 5), 5))
    assert(!IntSetOps.intersectOnlyAt(Array(1, 5), Array(1, 5), 5))
    assert(!IntSetOps.intersectOnlyAt(Array(1, 2), Array(3, 4), 3))
  }

  test("EdgeSet equality and hashing are content-based") {
    val a = EdgeSet.of(3, 1, 2)
    val b = EdgeSet.of(1, 2, 3)
    assert(a == b)
    assert(a.hashCode == b.hashCode)
    assert(a != EdgeSet.of(1, 2))
    assert(EdgeSet.empty.isEmpty)
    assert((EdgeSet.of(1) ++ EdgeSet.of(2)) == EdgeSet.of(1, 2))
    assert((EdgeSet.of(1) + 2).contains(2))
  }

  test("set ops agree with Set semantics on random inputs") {
    val rnd = new Random(42)
    for (_ <- 1 to 200) {
      val a = Seq.fill(rnd.nextInt(12))(rnd.nextInt(30)).distinct.sorted.toArray
      val b = Seq.fill(rnd.nextInt(12))(rnd.nextInt(30)).distinct.sorted.toArray
      assert(IntSetOps.union(a, b).toSeq == (a.toSet ++ b.toSet).toSeq.sorted)
      val common = a.toSet.intersect(b.toSet)
      if (common.size == 1)
        assert(IntSetOps.singleCommon(a, b) == common.head)
      else
        assert(IntSetOps.singleCommon(a, b) == -1)
    }
  }
}
