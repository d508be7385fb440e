package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
	"mcretiming/internal/xc4000"
)

// preparedTestCircuits returns the mapped C2 profile and a random mixed-class
// circuit — small enough to solve many times, rich enough to exercise
// sharing, bounds, and the §5.2 retry loop.
func preparedTestCircuits(t *testing.T) []*netlist.Circuit {
	t.Helper()
	c, err := gen.Circuit(2)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	return []*netlist.Circuit{mapped, gen.Random(42, 300)}
}

// TestPreparedAnchorMatchesRetime is the anchor's defining contract: the
// Prepare+Anchor split must reproduce the one-shot
// Retime(MinAreaAtMinPeriod) result bit for bit — same circuit text, same
// report columns.
func TestPreparedAnchorMatchesRetime(t *testing.T) {
	for _, c := range preparedTestCircuits(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ref, refRep, err := Retime(c, Options{Objective: MinAreaAtMinPeriod})
			if err != nil {
				t.Fatal(err)
			}
			prep, err := Prepare(context.Background(), c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			out, rep, err := prep.Anchor(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := circuitText(t, out), circuitText(t, ref); got != want {
				t.Fatal("anchor circuit differs from one-shot Retime result")
			}
			if rep.PeriodAfter != refRep.PeriodAfter || rep.RegsAfter != refRep.RegsAfter ||
				rep.StepsMoved != refRep.StepsMoved || rep.Retries != refRep.Retries ||
				rep.NumClasses != refRep.NumClasses {
				t.Fatalf("anchor report diverged: %+v vs %+v", rep, refRep)
			}
			if prep.BaselinePeriod() != refRep.PeriodBefore || prep.RegsBefore() != refRep.RegsBefore {
				t.Fatalf("baseline (%d, %d) disagrees with report %+v",
					prep.BaselinePeriod(), prep.RegsBefore(), refRep)
			}

			// Anchor is idempotent: a second call returns the same objects.
			out2, rep2, err := prep.Anchor(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if out2 != out || rep2 != rep {
				t.Fatal("second Anchor call re-solved instead of memoizing")
			}
		})
	}
}

// TestPreparedMinPeriodMatchesRetime: the anchor's minimum period agrees with
// the dedicated MinPeriod objective.
func TestPreparedMinPeriodMatchesRetime(t *testing.T) {
	for _, c := range preparedTestCircuits(t) {
		_, mpRep, err := Retime(c, Options{Objective: MinPeriod})
		if err != nil {
			t.Fatal(err)
		}
		prep, err := Prepare(context.Background(), c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := prep.Anchor(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.PeriodAfter != mpRep.PeriodAfter {
			t.Fatalf("%s: anchor min period %d, MinPeriod objective found %d",
				c.Name, rep.PeriodAfter, mpRep.PeriodAfter)
		}
	}
}

// TestPreparedSolveAtPeriodDeterministic: repeated solves at the same period
// — on the same Prepared and across independently Prepared instances — yield
// bit-identical circuits, and respect the period target.
func TestPreparedSolveAtPeriodDeterministic(t *testing.T) {
	for _, c := range preparedTestCircuits(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			prep, err := Prepare(ctx, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cands, err := prep.Candidates(ctx)
			if err != nil {
				t.Fatal(err)
			}
			_, anchorRep, err := prep.Anchor(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			var phi int64
			for _, cand := range cands {
				if cand > anchorRep.PeriodAfter {
					phi = cand
					break
				}
			}
			if phi == 0 {
				t.Skipf("no candidate period above the minimum (%d)", anchorRep.PeriodAfter)
			}
			out, rep, err := prep.SolveAtPeriod(ctx, phi, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.PeriodAfter > phi {
				t.Fatalf("solve at %d achieved %d", phi, rep.PeriodAfter)
			}
			ref := circuitText(t, out)

			out2, _, err := prep.SolveAtPeriod(ctx, phi, nil)
			if err != nil {
				t.Fatal(err)
			}
			if circuitText(t, out2) != ref {
				t.Fatal("repeat SolveAtPeriod on the same Prepared diverged")
			}

			prepB, err := Prepare(ctx, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			outB, _, err := prepB.SolveAtPeriod(ctx, phi, nil)
			if err != nil {
				t.Fatal(err)
			}
			if circuitText(t, outB) != ref {
				t.Fatal("SolveAtPeriod across Prepared instances diverged")
			}
		})
	}
}

// TestPreparedInfeasiblePeriod: a period below the minimum fails cleanly.
func TestPreparedInfeasiblePeriod(t *testing.T) {
	c := preparedTestCircuits(t)[0]
	ctx := context.Background()
	prep, err := Prepare(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := prep.Anchor(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prep.SolveAtPeriod(ctx, rep.PeriodAfter-1, nil); err == nil {
		t.Fatal("SolveAtPeriod below the minimum period succeeded")
	}
}

// TestPreparedAnchorRetriesAfterFailure: an anchor solve that fails —
// cancelled, or hit by a per-job failpoint — is not memoized. The next
// Anchor solves again and matches a fresh Prepare's anchor byte for byte.
func TestPreparedAnchorRetriesAfterFailure(t *testing.T) {
	c := preparedTestCircuits(t)[0]
	ctx := context.Background()
	fresh, err := Prepare(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, refRep, err := fresh.Anchor(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"failpoint", withFailpoints(t, ctx, "pass.minperiod=1*error(internal)"), rterr.ErrInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(ctx, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := prep.SolveAtPeriod(tc.ctx, refRep.PeriodAfter, nil); !errors.Is(err, tc.want) {
				t.Fatalf("first solve: err = %v, want %v", err, tc.want)
			}
			out, _, err := prep.Anchor(ctx, nil)
			if err != nil {
				t.Fatalf("Anchor after a failed anchor solve: %v", err)
			}
			if circuitText(t, out) != circuitText(t, ref) {
				t.Fatal("re-run anchor differs from a fresh Prepare's anchor")
			}
		})
	}
}

// TestPreparedConcurrentSolveAfterFailedAnchor: concurrent SolveAtPeriod
// callers, half of them already cancelled, share one Prepared whose anchor
// nobody has solved yet. Every live caller gets the fresh-Prepare answer,
// whichever caller reached the anchor first.
func TestPreparedConcurrentSolveAfterFailedAnchor(t *testing.T) {
	c := preparedTestCircuits(t)[0]
	ctx := context.Background()
	fresh, err := Prepare(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, anchorRep, err := fresh.Anchor(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	phi := anchorRep.PeriodAfter
	ref, _, err := fresh.SolveAtPeriod(ctx, phi, nil)
	if err != nil {
		t.Fatal(err)
	}

	prep, err := Prepare(ctx, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	const callers = 6
	outs := make([]*netlist.Circuit, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		callCtx := ctx
		if i%2 == 0 {
			callCtx = cancelled
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], _, errs[i] = prep.SolveAtPeriod(callCtx, phi, nil)
		}()
	}
	wg.Wait()
	want := circuitText(t, ref)
	for i := range callers {
		if i%2 == 0 {
			if !errors.Is(errs[i], context.Canceled) {
				t.Errorf("cancelled caller %d: err = %v, want context.Canceled", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("live caller %d: %v", i, errs[i])
		} else if circuitText(t, outs[i]) != want {
			t.Errorf("live caller %d: result differs from a fresh Prepare's", i)
		}
	}
}
