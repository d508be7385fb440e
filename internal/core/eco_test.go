package core

import (
	"context"
	"testing"

	"mcretiming/internal/netlist"
)

// ecoEditTarget picks a gate to edit: the live gate with the largest delay,
// so halving it actually perturbs the timing landscape.
func ecoEditTarget(t *testing.T, c *netlist.Circuit) *netlist.Gate {
	t.Helper()
	var pick *netlist.Gate
	c.LiveGates(func(g *netlist.Gate) {
		if pick == nil || g.Delay > pick.Delay {
			pick = g
		}
	})
	if pick == nil {
		t.Fatal("circuit has no live gates")
	}
	return pick
}

// reportsMatch compares the report columns that must be bit-identical between
// an ECO re-solve and a cold re-solve (everything except wall-clock fields).
func reportsMatch(a, b *Report) bool {
	return a.NumClasses == b.NumClasses &&
		a.PeriodBefore == b.PeriodBefore && a.PeriodAfter == b.PeriodAfter &&
		a.RegsBefore == b.RegsBefore && a.RegsAfter == b.RegsAfter &&
		a.StepsMoved == b.StepsMoved && a.StepsPossible == b.StepsPossible &&
		a.BackwardSteps == b.BackwardSteps && a.ForwardSteps == b.ForwardSteps &&
		a.JustifyLocal == b.JustifyLocal && a.JustifyGlobal == b.JustifyGlobal &&
		a.JustifyConflicts == b.JustifyConflicts && a.Retries == b.Retries &&
		len(a.Degraded) == len(b.Degraded)
}

// TestEcoApplyMatchesColdPrepare is Apply's defining contract: the ECO path
// must be indistinguishable from a cold Prepare on the edited circuit —
// identical anchor circuit and report, identical candidate periods, identical
// per-period solves.
func TestEcoApplyMatchesColdPrepare(t *testing.T) {
	for _, c := range preparedTestCircuits(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			opts := Options{}
			prep, err := Prepare(ctx, c, opts)
			if err != nil {
				t.Fatal(err)
			}

			gate := ecoEditTarget(t, c)
			edit := Edit{Gate: gate.Name, DelayPS: gate.Delay/2 + 1}
			eco, err := prep.Apply(edit)
			if err != nil {
				t.Fatal(err)
			}

			// The cold reference: hand-edit a clone and prepare from scratch.
			edited := c.Clone()
			edited.Gates[gate.ID].Delay = edit.DelayPS
			cold, err := Prepare(ctx, edited, opts)
			if err != nil {
				t.Fatal(err)
			}

			if eco.BaselinePeriod() != cold.BaselinePeriod() {
				t.Fatalf("baseline period: eco %d, cold %d", eco.BaselinePeriod(), cold.BaselinePeriod())
			}
			ecoCands, err := eco.Candidates(ctx)
			if err != nil {
				t.Fatal(err)
			}
			coldCands, err := cold.Candidates(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(ecoCands) != len(coldCands) {
				t.Fatalf("candidate counts differ: eco %d, cold %d", len(ecoCands), len(coldCands))
			}
			for i := range ecoCands {
				if ecoCands[i] != coldCands[i] {
					t.Fatalf("candidate %d differs: eco %d, cold %d", i, ecoCands[i], coldCands[i])
				}
			}

			ecoOut, ecoRep, err := eco.Anchor(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			coldOut, coldRep, err := cold.Anchor(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if circuitText(t, ecoOut) != circuitText(t, coldOut) {
				t.Fatal("ECO anchor circuit differs from cold prepare's")
			}
			if !reportsMatch(ecoRep, coldRep) {
				t.Fatalf("ECO anchor report diverged:\neco  %+v\ncold %+v", ecoRep, coldRep)
			}

			// Per-period solves agree too (first candidate above the minimum).
			var phi int64
			for _, cand := range ecoCands {
				if cand > ecoRep.PeriodAfter {
					phi = cand
					break
				}
			}
			if phi != 0 {
				ecoPt, _, err := eco.SolveAtPeriod(ctx, phi, nil)
				if err != nil {
					t.Fatal(err)
				}
				coldPt, _, err := cold.SolveAtPeriod(ctx, phi, nil)
				if err != nil {
					t.Fatal(err)
				}
				if circuitText(t, ecoPt) != circuitText(t, coldPt) {
					t.Fatalf("ECO solve at %d differs from cold prepare's", phi)
				}
			}

			// The original Prepared is untouched: its circuit still carries the
			// old delay and it still solves.
			if got := c.Gates[gate.ID].Delay; got != gate.Delay {
				t.Fatalf("Apply mutated the original circuit: gate delay %d", got)
			}
			if _, _, err := prep.Anchor(ctx, nil); err != nil {
				t.Fatalf("original Prepared broken after Apply: %v", err)
			}
		})
	}
}

// TestEcoApplyChain: ECOs compose — applying a second edit to an ECO'd
// Prepared equals a cold prepare with both edits.
func TestEcoApplyChain(t *testing.T) {
	c := preparedTestCircuits(t)[0]
	ctx := context.Background()
	opts := Options{}
	prep, err := Prepare(ctx, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	gate := ecoEditTarget(t, c)

	eco1, err := prep.Apply(Edit{Gate: gate.Name, DelayPS: gate.Delay + 700})
	if err != nil {
		t.Fatal(err)
	}
	eco2, err := eco1.Apply(Edit{Gate: gate.Name, DelayPS: gate.Delay + 100})
	if err != nil {
		t.Fatal(err)
	}

	edited := c.Clone()
	edited.Gates[gate.ID].Delay = gate.Delay + 100
	cold, err := Prepare(ctx, edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	ecoOut, _, err := eco2.Anchor(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldOut, _, err := cold.Anchor(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if circuitText(t, ecoOut) != circuitText(t, coldOut) {
		t.Fatal("chained ECO anchor differs from cold prepare with the final delay")
	}
}

// TestEcoApplyErrors: unknown gates and negative delays are rejected.
func TestEcoApplyErrors(t *testing.T) {
	c := preparedTestCircuits(t)[0]
	prep, err := Prepare(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Apply(Edit{Gate: "no-such-gate", DelayPS: 100}); err == nil {
		t.Fatal("Apply accepted an unknown gate")
	}
	gate := ecoEditTarget(t, c)
	if _, err := prep.Apply(Edit{Gate: gate.Name, DelayPS: -1}); err == nil {
		t.Fatal("Apply accepted a negative delay")
	}
}
