package core

import (
	"context"
	"fmt"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// equivCircuits builds the engine-equivalence golden suite: mapped profiles
// covering plain pipelines (C2), async-reset + justification-heavy structure
// (C6) and sharing-heavy many-class structure (C7), plus a seeded random
// circuit mixing every register class.
func equivCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	var circuits []*netlist.Circuit
	for _, i := range []int{2, 6, 7} {
		c, err := gen.Circuit(i)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, mapped)
	}
	return append(circuits, gen.Random(42, 300))
}

// TestEngineEquivalence is the solve core's correctness anchor: on the
// golden suite, the production (matrix-free, warm-started) solve must produce
// a circuit bit-identical to the dense W/D oracle, for both objectives that
// exercise the solve core. The two share relocation and justification, so
// any divergence localizes to the period/area solvers. On C2 and C7 the contract extends to the sweep's
// MinAreaAtPeriod solves at its candidate periods, through both Retime and
// Prepared.SolveAtPeriod.
func TestEngineEquivalence(t *testing.T) {
	for _, c := range equivCircuits(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			// MinAreaAtMinPeriod runs the full solve core (minperiod then
			// minarea), so it alone pins both solvers; the extra MinPeriod-
			// objective pass doubles the dense reference cost for little new
			// coverage, so the big golden (mapped C6, ~60 s per dense solve)
			// skips it.
			objectives := []Objective{MinPeriod, MinAreaAtMinPeriod}
			if c.NumGates()+c.NumRegs() > 2000 {
				objectives = objectives[1:]
			}
			for _, obj := range objectives {
				assertMatchesDense(t, c, Options{Objective: obj}, fmt.Sprintf("objective %d", obj))
			}
			if c.Name != "C2" && c.Name != "C7" {
				return
			}
			prep, err := Prepare(context.Background(), c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			phis := sweepPeriods(t, prep)
			if len(phis) == 0 {
				t.Fatal("no candidate periods above the minimum: the at-period leg would be vacuous")
			}
			t.Logf("MinAreaAtPeriod at %v ps", phis)
			for _, phi := range phis {
				name := fmt.Sprintf("period %d", phi)
				refText := assertMatchesDense(t, c, Options{Objective: MinAreaAtPeriod, TargetPeriod: phi}, name)
				out, _, err := prep.SolveAtPeriod(context.Background(), phi, nil)
				if err != nil {
					t.Fatalf("%s SolveAtPeriod: %v", name, err)
				}
				if circuitText(t, out) != refText {
					t.Fatalf("%s SolveAtPeriod: circuit differs from the dense reference", name)
				}
			}
		})
	}
}

// assertMatchesDense solves c under opts with the dense oracle and with the
// production solve, requires the circuits and the result columns of the
// reports to agree, and returns the reference text.
func assertMatchesDense(t *testing.T, c *netlist.Circuit, opts Options, name string) string {
	t.Helper()
	refText, refRep := oracleText(t, c, opts, oracleDense)
	out, rep, err := Retime(c, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := circuitText(t, out); got != refText {
		t.Fatalf("%s: circuit differs from the dense reference", name)
	}
	if rep.PeriodAfter != refRep.PeriodAfter || rep.RegsAfter != refRep.RegsAfter ||
		rep.StepsMoved != refRep.StepsMoved || rep.NumClasses != refRep.NumClasses ||
		rep.JustifyLocal != refRep.JustifyLocal || rep.JustifyGlobal != refRep.JustifyGlobal {
		t.Fatalf("%s: report diverged: %+v vs %+v", name, rep, refRep)
	}
	return refText
}

// sweepPeriods returns the periods a capped design-space sweep of prep
// solves beyond its anchor: the candidate periods above the minimum feasible
// one, subsampled to three evenly spaced values with both ends kept.
func sweepPeriods(t *testing.T, prep *Prepared) []int64 {
	t.Helper()
	_, anchorRep, err := prep.Anchor(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := prep.Candidates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var above []int64
	for _, phi := range cands {
		if phi > anchorRep.PeriodAfter {
			above = append(above, phi)
		}
	}
	if len(above) <= 3 {
		return above
	}
	n := len(above)
	return []int64{above[0], above[(n-1)/2], above[n-1]}
}

// TestDenseCrossCheckUnderInvariants pins the dense minperiod cross-check
// this test binary installs as minPeriodCrossCheck (checks are forced on
// here): it runs once per minperiod solve on a graph of at most
// denseCrossCheckMaxV vertices and never above that size, where
// materializing W/D would defeat the matrix-free search.
func TestDenseCrossCheckUnderInvariants(t *testing.T) {
	covered := map[int64]bool{}
	for _, c := range []*netlist.Circuit{fig1Circuit(t), gen.Random(42, 300), gen.Random(7, 1200)} {
		prep, err := Prepare(context.Background(), c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if prep.st.g.NumVertices() <= denseCrossCheckMaxV {
			want = 1
		}
		covered[want] = true
		before := denseCrossChecks.Load()
		if _, _, err := Retime(c, Options{Objective: MinAreaAtMinPeriod}); err != nil {
			t.Fatal(err)
		}
		if got := denseCrossChecks.Load() - before; got != want {
			t.Errorf("%s (%d vertices): %d dense cross-checks, want %d",
				c.Name, prep.st.g.NumVertices(), got, want)
		}
	}
	if !covered[0] || !covered[1] {
		t.Fatal("circuits do not straddle the cross-check size cap")
	}
}
