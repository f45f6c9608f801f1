package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.benchlib.{Fig10Baselines, SyntheticCtpWorkloads}

/** Fig. 10 reproduction: complete baseline algorithms on Line/Comb/Star.
  * Paper's claims checked as assertions:
  *  (i)  breadth-first algorithms blow up (time out) on the larger
  *       workloads while GAM completes everywhere;
  *  (ii) every algorithm that completes finds the single result.
  */
class Fig10BaselinesBench extends AnyFunSuite {

  test("Fig 10: baselines on Line/Comb/Star") {
    val rows = Fig10Baselines.run(timeoutMs = 5000L)
    SyntheticCtpWorkloads.render(Fig10Baselines.title, rows)

    val gam = rows.filter(_.algo == "GAM")
    assert(gam.forall(r => !r.timedOut && r.results == 1),
      "GAM must complete everywhere with the single result")

    rows.filterNot(_.timedOut).foreach { r =>
      assert(r.results == 1, s"${r.algo} on ${r.family}(${r.params}) missed the result")
    }

    // The grid is large enough that the BFT blow-up (§5.4.1) is visible:
    // some BFT-family run must time out or build ≥3x GAM's provenances.
    val blowup = rows.exists(r => r.algo.startsWith("BFT") &&
      (r.timedOut || {
        val g = gam.find(x => x.family == r.family && x.params == r.params).get
        r.provenances > 3 * g.provenances
      }))
    assert(blowup, "expected a visible BFT blow-up somewhere in the grid")
  }
}
