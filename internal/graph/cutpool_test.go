package graph

import (
	"math/rand"
	"testing"
)

// naivePool is the pre-dedup reference semantics: every cut kept verbatim.
type naivePool struct{ cuts []Cut }

func (p *naivePool) forPeriod(phi int64) []Constraint {
	var out []Constraint
	for _, c := range p.cuts {
		if c.PathDelay > phi {
			out = append(out, c.Constraint)
		}
	}
	return out
}

// Dominated cuts must be dropped, duplicates collapsed, and incomparable
// cuts on the same pair all kept.
func TestCutPoolDedup(t *testing.T) {
	p := &CutPool{}
	base := Cut{Constraint: Constraint{Y: 1, X: 2, B: 5}, PathDelay: 10}
	p.Add([]Cut{base})
	p.Add([]Cut{base}) // exact duplicate
	if p.Len() != 1 {
		t.Fatalf("duplicate kept: len %d", p.Len())
	}
	// Dominated: looser bound, shorter path.
	p.Add([]Cut{{Constraint: Constraint{Y: 1, X: 2, B: 7}, PathDelay: 8}})
	if p.Len() != 1 {
		t.Fatalf("dominated cut kept: len %d", p.Len())
	}
	// Dominating: tighter bound, longer path — replaces the original.
	p.Add([]Cut{{Constraint: Constraint{Y: 1, X: 2, B: 4}, PathDelay: 12}})
	if p.Len() != 1 {
		t.Fatalf("dominating cut did not replace: len %d", p.Len())
	}
	if cs := p.ForPeriod(11); len(cs) != 1 || cs[0].B != 4 {
		t.Fatalf("ForPeriod(11) = %v, want the dominating cut B=4", cs)
	}
	// Incomparable: tighter bound but shorter path — both stay (staircase).
	p.Add([]Cut{{Constraint: Constraint{Y: 1, X: 2, B: 2}, PathDelay: 9}})
	if p.Len() != 2 {
		t.Fatalf("incomparable cut not kept: len %d", p.Len())
	}
	// Another pair is independent.
	p.Add([]Cut{{Constraint: Constraint{Y: 2, X: 1, B: 4}, PathDelay: 12}})
	if p.Len() != 3 {
		t.Fatalf("distinct pair merged: len %d", p.Len())
	}
	// A cut dominating the whole staircase collapses it to one entry.
	p.Add([]Cut{{Constraint: Constraint{Y: 1, X: 2, B: 1}, PathDelay: 20}})
	if p.Len() != 2 {
		t.Fatalf("staircase not collapsed: len %d", p.Len())
	}
	if cs := p.ForPeriod(0); len(cs) != 2 {
		t.Fatalf("ForPeriod(0) = %v, want 2 live cuts", cs)
	}
	if snap := p.Snapshot(); len(snap) != 2 {
		t.Fatalf("Snapshot has %d cuts, want 2", len(snap))
	}
}

// At every probe period, the difference system over the deduplicated pool
// must have exactly the same solution as over the naive pool: a dominated
// constraint can never bind in the SPFA relaxation.
func TestCutPoolDedupPreservesSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 50; iter++ {
		g := randomSolvableGraph(rng)
		n := g.NumVertices()
		naive := &naivePool{}
		dedup := &CutPool{}
		nCuts := 5 + rng.Intn(40)
		for i := 0; i < nCuts; i++ {
			c := Cut{
				Constraint: Constraint{
					Y: VertexID(rng.Intn(n)),
					X: VertexID(rng.Intn(n)),
					B: int32(rng.Intn(4)),
				},
				PathDelay: int64(1 + rng.Intn(30)),
			}
			naive.cuts = append(naive.cuts, c)
			dedup.Add([]Cut{c})
		}
		if dedup.Len() > len(naive.cuts) {
			t.Fatalf("iter %d: dedup grew the pool: %d > %d", iter, dedup.Len(), len(naive.cuts))
		}
		base := g.BaseConstraints(nil)
		for _, phi := range []int64{0, 5, 10, 15, 25, 40} {
			rNaive, okNaive := solveDifference(n, append(base[:len(base):len(base)], naive.forPeriod(phi)...))
			rDedup, okDedup := solveDifference(n, append(base[:len(base):len(base)], dedup.ForPeriod(phi)...))
			if okNaive != okDedup {
				t.Fatalf("iter %d phi %d: feasibility %v != %v", iter, phi, okDedup, okNaive)
			}
			if !okNaive {
				continue
			}
			for v := range rNaive {
				if rNaive[v]-rNaive[Host] != rDedup[v]-rDedup[Host] {
					t.Fatalf("iter %d phi %d: solutions differ at v%d", iter, phi, v)
				}
			}
		}
		// Seeding through NewCutPool must behave like Add.
		seeded := NewCutPool(naive.cuts)
		if seeded.Len() != dedup.Len() {
			t.Fatalf("iter %d: NewCutPool len %d != Add len %d", iter, seeded.Len(), dedup.Len())
		}
	}
}

func TestCutPoolFiltering(t *testing.T) {
	p := &CutPool{}
	p.Add([]Cut{
		{Constraint{Y: 1, X: 2, B: 3}, 100},
		{Constraint{Y: 2, X: 3, B: 1}, 50},
	})
	if got := len(p.ForPeriod(75)); got != 1 {
		t.Errorf("cuts at phi=75: %d, want 1", got)
	}
	if got := len(p.ForPeriod(10)); got != 2 {
		t.Errorf("cuts at phi=10: %d, want 2", got)
	}
	if got := len(p.ForPeriod(100)); got != 0 {
		t.Errorf("cuts at phi=100: %d, want 0", got)
	}
}
