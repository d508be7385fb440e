package graph

import (
	"context"
	"math/rand"
	"testing"
)

// randLadderGraph builds a small random host-anchored graph of the shape the
// other randomized suites use: a register ring plus random chords.
func randLadderGraph(rng *rand.Rand) *Graph {
	g := New()
	n := 4 + rng.Intn(14)
	vs := make([]VertexID, n)
	for i := range vs {
		vs[i] = g.AddVertex("", int64(1+rng.Intn(9)))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
	}
	for k := 0; k < n; k++ {
		g.AddEdge(vs[rng.Intn(n)], vs[rng.Intn(n)], int32(1+rng.Intn(3)))
	}
	g.AddEdge(Host, vs[0], 1)
	g.AddEdge(vs[n-1], Host, 1)
	return g
}

// A warm-started minperiod search performs exactly one cold SPFA seeding no
// matter how many probes it runs — the structural contract the scale tests
// and the bench gate pin at 10⁶ vertices, checked here at unit size.
func TestLadderOneColdStartPerSearch(t *testing.T) {
	g := correlator()
	phiRef, _, err := g.MinPeriodLazy(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Ladder: NewProbeLadder()}
	before := ColdStartCount()
	phi, r, err := g.MinPeriodLazyEng(context.Background(), nil, nil, eng)
	if err != nil {
		t.Fatal(err)
	}
	if d := ColdStartCount() - before; d != 1 {
		t.Errorf("warm search performed %d cold SPFA starts, want 1", d)
	}
	if phi != phiRef {
		t.Errorf("warm min period %d, reference %d", phi, phiRef)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
}

// Every ladder invalidation path must fall back to a cold solve and still
// produce the ladder-free answer: a different graph behind the same ladder, a
// §5.2-style in-place bounds tightening, a probe above the checkpoint period,
// and an explicit ECO Reset.
func TestLadderInvalidationPaths(t *testing.T) {
	ctx := context.Background()

	t.Run("graph change rebinds", func(t *testing.T) {
		eng := &Engine{Ladder: NewProbeLadder()}
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 20; iter++ {
			g := randLadderGraph(rng)
			phiRef, _, err := g.MinPeriodLazy(nil, nil)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			phi, r, err := g.MinPeriodLazyEng(ctx, nil, nil, eng)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if phi != phiRef {
				t.Fatalf("iter %d: reused ladder gave %d, fresh solve %d", iter, phi, phiRef)
			}
			if err := g.CheckLegal(r); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	})

	t.Run("bounds tightened in place", func(t *testing.T) {
		g := correlator()
		n := g.NumVertices()
		bounds := NewBounds(n)
		for v := 1; v < n; v++ {
			bounds.Min[v], bounds.Max[v] = -3, 3
		}
		eng := &Engine{Ladder: NewProbeLadder()}
		phi, _, err := g.MinPeriodLazyEng(ctx, bounds, nil, eng)
		if err != nil {
			t.Fatal(err)
		}
		// Tighten the same backing arrays the checkpoint was taken under;
		// boundsMatch must detect the content change and solve cold.
		for v := 1; v < n; v++ {
			bounds.Min[v], bounds.Max[v] = -1, 1
		}
		r, ok, err := g.FeasibleLazyEng(ctx, phi, bounds, &CutPool{}, eng)
		rRef, okRef := g.FeasibleLazy(phi, bounds, &CutPool{})
		if err != nil {
			t.Fatal(err)
		}
		if ok != okRef {
			t.Fatalf("stale-bounds probe verdict %v, fresh solve %v", ok, okRef)
		}
		if ok {
			if err := bounds.Check(r); err != nil {
				t.Fatal(err)
			}
			if err := bounds.Check(rRef); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("probe above checkpoint period", func(t *testing.T) {
		g := correlator()
		eng := &Engine{Ladder: NewProbeLadder()}
		phi, _, err := g.MinPeriodLazyEng(ctx, nil, nil, eng)
		if err != nil {
			t.Fatal(err)
		}
		// The checkpoint sits at the minimum period; a later probe far above
		// it cannot warm-start (its cut set is a subset, not a superset).
		r, ok, err := g.FeasibleLazyEng(ctx, phi+10, nil, &CutPool{}, eng)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("probe at %d reported infeasible above the minimum %d", phi+10, phi)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatal(err)
		}
		if p, _ := g.Period(r); p > phi+10 {
			t.Fatalf("achieved %d > probed %d", p, phi+10)
		}
	})

	t.Run("reset keeps buffers drops state", func(t *testing.T) {
		g := correlator()
		lad := NewProbeLadder()
		eng := &Engine{Ladder: lad}
		phiRef, _, err := g.MinPeriodLazyEng(ctx, nil, nil, eng)
		if err != nil {
			t.Fatal(err)
		}
		lad.Reset()
		if lad.ckValid || lad.ckLen != 0 {
			t.Fatal("Reset left a checkpoint behind")
		}
		phi, r, err := g.MinPeriodLazyEng(ctx, nil, nil, eng)
		if err != nil {
			t.Fatal(err)
		}
		if phi != phiRef {
			t.Fatalf("post-Reset solve gave %d, want %d", phi, phiRef)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatal(err)
		}
	})
}

// Certificate soundness: the infeasibility certificate lets the binary search
// jump its lower bound past unprobed periods, so the one thing it must never
// do is skip a feasible one. For random graphs the certified minimum must be
// the dense oracle's, and the period just below it must still probe
// infeasible with a fresh solver.
func TestCertificateNeverSkipsFeasible(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 120; iter++ {
		g := randLadderGraph(rng)
		phiDense, _, err := g.MinPeriod(nil, nil)
		if err != nil {
			t.Fatalf("iter %d: dense: %v", iter, err)
		}
		eng := &Engine{Ladder: NewProbeLadder()}
		phi, r, err := g.MinPeriodLazyEng(ctx, nil, nil, eng)
		if err != nil {
			t.Fatalf("iter %d: warm: %v", iter, err)
		}
		if phi != phiDense {
			t.Fatalf("iter %d: certified minimum %d, dense oracle %d", iter, phi, phiDense)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if p, _ := g.Period(r); p > phi {
			t.Fatalf("iter %d: achieved %d > reported %d", iter, p, phi)
		}
		if _, ok := g.FeasibleLazy(phi-1, nil, &CutPool{}); ok {
			t.Fatalf("iter %d: period %d feasible below the certified minimum %d", iter, phi-1, phi)
		}
	}
}
