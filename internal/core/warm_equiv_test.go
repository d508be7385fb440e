package core

import (
	"fmt"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
)

// assertEngineAgreement solves c with the cold-probe oracle (no probe
// ladder, every probe re-seeds SPFA) and requires the production
// warm-started solve to reproduce it byte for byte — circuit text, period,
// register count, movement counters. When dense is true the dense W/D oracle
// joins the comparison.
func assertEngineAgreement(t *testing.T, c *netlist.Circuit, obj Objective, dense bool) {
	t.Helper()
	opts := Options{Objective: obj}
	refText, refRep := oracleText(t, c, opts, oracleCold)
	out, warmRep, err := Retime(c, opts)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if circuitText(t, out) != refText {
		t.Fatal("warm: circuit differs from the cold reference")
	}
	if warmRep.PeriodAfter != refRep.PeriodAfter || warmRep.RegsAfter != refRep.RegsAfter ||
		warmRep.StepsMoved != refRep.StepsMoved || warmRep.Retries != refRep.Retries {
		t.Fatalf("warm: report diverged: period %d/%d regs %d/%d steps %d/%d",
			warmRep.PeriodAfter, refRep.PeriodAfter, warmRep.RegsAfter, refRep.RegsAfter,
			warmRep.StepsMoved, refRep.StepsMoved)
	}
	if dense {
		denseText, denseRep := oracleText(t, c, opts, oracleDense)
		if denseText != refText {
			t.Fatal("dense oracle: circuit differs from the cold reference")
		}
		if denseRep.PeriodAfter != refRep.PeriodAfter || denseRep.RegsAfter != refRep.RegsAfter {
			t.Fatalf("dense oracle: period/regs diverged: %d/%d vs %d/%d",
				denseRep.PeriodAfter, refRep.PeriodAfter, denseRep.RegsAfter, refRep.RegsAfter)
		}
	}
}

// TestWarmEquivalenceGolden pins the warm-started probes to the cold
// reference on the golden trio (mapped C2/C6/C7 and the seeded random mix,
// see equivCircuits). The production solve is itself pinned to the dense
// oracle by TestEngineEquivalence, so agreement here is transitively
// dense-identical without re-paying the dense solves.
func TestWarmEquivalenceGolden(t *testing.T) {
	for _, c := range equivCircuits(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			assertEngineAgreement(t, c, MinAreaAtMinPeriod, false)
		})
	}
}

// TestWarmEquivalenceRandomized is the breadth half of the PR8 equivalence
// contract: 100+ seeded random circuits mixing every register class, each
// solved by the cold reference, the warm-started production solve, and
// (every fourth trial, to bound the O(V²) oracle cost) the dense reference —
// all required byte-identical. Runs under -race in CI,
// so it also exercises the ladder's single-owner discipline.
func TestWarmEquivalenceRandomized(t *testing.T) {
	const trials = 104
	if testing.Short() {
		t.Skip("randomized equivalence suite is not -short")
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%03d", trial), func(t *testing.T) {
			t.Parallel()
			size := 60 + (trial*13)%140
			c := gen.Random(int64(1000+trial), size)
			obj := MinAreaAtMinPeriod
			if trial%3 == 1 {
				obj = MinPeriod
			}
			assertEngineAgreement(t, c, obj, trial%4 == 0)
		})
	}
}
