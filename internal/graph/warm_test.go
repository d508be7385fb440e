package graph

import (
	"context"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// intSource is the randomness randLadderGraph draws from: a *rand.Rand for
// the seeded suites, a byteSource for the fuzz target.
type intSource interface{ Intn(n int) int }

// byteSource decodes fuzz input as a stream of small integers. Past the end
// of the input it continues from a generator seeded with the input's hash, so
// every input decodes to a whole graph and probe sequence while mutations of
// its bytes still steer the decoded prefix.
type byteSource struct {
	data []byte
	rest *rand.Rand
}

func newByteSource(data []byte) *byteSource {
	h := fnv.New64a()
	h.Write(data)
	return &byteSource{data: data, rest: rand.New(rand.NewSource(int64(h.Sum64())))}
}

func (b *byteSource) Intn(n int) int {
	if len(b.data) == 0 {
		return b.rest.Intn(n)
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v % n
}

// randLadderGraph builds a small random host-anchored graph of the shape the
// other randomized suites use: a register ring plus random chords carrying
// minChordW to 3 registers. With minChordW = 0 the chords form
// combinational paths (and possibly zero-weight cycles, which Period rejects).
func randLadderGraph(rng intSource, minChordW int) *Graph {
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
		g.AddEdge(vs[rng.Intn(n)], vs[rng.Intn(n)], int32(minChordW+rng.Intn(4-minChordW)))
	}
	g.AddEdge(Host, vs[0], 1)
	g.AddEdge(vs[n-1], Host, 1)
	return g
}

// A warm-started minperiod search performs exactly one cold SPFA seeding no
// matter how many probes it runs — the structural contract the scale tests
// pin at ~77k and 10⁶ vertices, checked here at unit size — and returns the
// cold reference's retiming bit for bit.
func TestLadderOneColdStartPerSearch(t *testing.T) {
	ctx := context.Background()
	g := correlator()
	phiRef, rRef, err := g.MinPeriodLazy(ctx, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := ColdStartCount()
	phi, r, err := g.MinPeriodLazy(ctx, nil, nil, NewProbeLadder())
	if err != nil {
		t.Fatal(err)
	}
	if d := ColdStartCount() - before; d != 1 {
		t.Errorf("warm search performed %d cold SPFA starts, want 1", d)
	}
	if phi != phiRef || !slices.Equal(r, rRef) {
		t.Errorf("warm min period %d diverged from the cold reference %d", phi, phiRef)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
}

// Every ladder invalidation path must fall back to a cold solve and still
// produce the cold reference's answer: a different graph behind the same
// ladder, a §5.2-style in-place bounds tightening, and a probe above the
// checkpoint period.
func TestLadderInvalidationPaths(t *testing.T) {
	ctx := context.Background()

	t.Run("graph change rebinds", func(t *testing.T) {
		lad := NewProbeLadder()
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 20; iter++ {
			g := randLadderGraph(rng, 1)
			phiRef, rRef, err := g.MinPeriodLazy(ctx, nil, nil, nil)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			phi, r, err := g.MinPeriodLazy(ctx, nil, nil, lad)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if phi != phiRef || !slices.Equal(r, rRef) {
				t.Fatalf("iter %d: reused ladder gave %d, cold reference %d", iter, phi, phiRef)
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
		lad := NewProbeLadder()
		phi, _, err := g.MinPeriodLazy(ctx, bounds, nil, lad)
		if err != nil {
			t.Fatal(err)
		}
		// Tighten the same backing arrays the checkpoint was taken under;
		// boundsMatch must detect the content change and solve cold.
		for v := 1; v < n; v++ {
			bounds.Min[v], bounds.Max[v] = -1, 1
		}
		r, ok, err := g.FeasibleLazy(ctx, phi, bounds, &CutPool{}, lad)
		if err != nil {
			t.Fatal(err)
		}
		rRef, okRef, err := g.FeasibleLazy(ctx, phi, bounds, &CutPool{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok != okRef || !slices.Equal(r, rRef) {
			t.Fatalf("stale-bounds probe verdict %v, cold reference %v", ok, okRef)
		}
		if ok {
			if err := bounds.Check(r); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("probe above checkpoint period", func(t *testing.T) {
		g := correlator()
		lad := NewProbeLadder()
		phi, _, err := g.MinPeriodLazy(ctx, nil, nil, lad)
		if err != nil {
			t.Fatal(err)
		}
		// The checkpoint sits at the minimum period; a later probe far above
		// it cannot warm-start (its cut set is a subset, not a superset).
		r, ok, err := g.FeasibleLazy(ctx, phi+10, nil, &CutPool{}, lad)
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
}

// FuzzProbeLadder drives one shared ladder through a decoded probe sequence
// and checks every probe against the cold reference (lad == nil): the same
// verdict and, when feasible, the same retiming. The input decodes into a
// randLadderGraph-shaped graph with combinational chords (so the minimum
// period can sit below the original one), optional class bounds around 0, and 16
// probes mixing descents (the ladder's warm path), jumps above the checkpoint
// (cold reseeds) and, with bounds, one in-place tightening before one of the
// first 12 probes, the way a §5.2 retry mutates the bounds its ladder was
// checkpointed under.
func FuzzProbeLadder(f *testing.F) {
	for _, seed := range []string{"", "\x00", "\x0d\x08\x08\x08", "probe ladder", "bounds tightened in place"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		src := newByteSource(data)
		g := randLadderGraph(src, 0)
		n := g.NumVertices()
		var bounds *Bounds
		if src.Intn(2) == 1 {
			bounds = NewBounds(n)
			for v := 1; v < n; v++ {
				bounds.Min[v], bounds.Max[v] = -int32(src.Intn(4)), int32(src.Intn(4))
			}
		}
		hi, err := g.Period(nil)
		if err != nil {
			t.Skip(err)
		}
		lo := g.MaxDelay()
		span := int(hi-lo) + 3
		tighten := src.Intn(12) // probe index before which bounds tighten
		warmPool, coldPool := &CutPool{}, &CutPool{}
		lad := NewProbeLadder()
		phi := hi
		for i := 0; i < 16; i++ {
			if i == tighten && bounds != nil {
				for v := 1; v < n; v++ {
					switch src.Intn(3) {
					case 1: // pin, as a §5.2 retry does to a conflicting vertex
						bounds.Min[v], bounds.Max[v] = 0, 0
					case 2: // shrink one step toward 0
						bounds.Min[v] = min(bounds.Min[v]+1, 0)
						bounds.Max[v] = max(bounds.Max[v]-1, 0)
					}
				}
			}
			step := int64(src.Intn(span/2 + 1))
			if src.Intn(4) == 0 {
				phi += 1 + step // above the checkpoint: the ladder must reseed
			} else {
				phi -= step
			}
			phi = min(max(phi, lo-1), hi+1)
			r, ok, err := g.FeasibleLazy(ctx, phi, bounds, warmPool, lad)
			if err != nil {
				t.Fatalf("probe %d at %d: ladder: %v", i, phi, err)
			}
			rRef, okRef, err := g.FeasibleLazy(ctx, phi, bounds, coldPool, nil)
			if err != nil {
				t.Fatalf("probe %d at %d: cold: %v", i, phi, err)
			}
			if ok != okRef {
				t.Fatalf("probe %d at %d: ladder verdict %v, cold reference %v", i, phi, ok, okRef)
			}
			if !slices.Equal(r, rRef) {
				t.Fatalf("probe %d at %d: ladder retiming %v, cold reference %v", i, phi, r, rRef)
			}
			if ok {
				if err := bounds.Check(r); err != nil {
					t.Fatalf("probe %d at %d: %v", i, phi, err)
				}
				if p, _ := g.Period(r); p > phi {
					t.Fatalf("probe %d: achieved %d > probed %d", i, p, phi)
				}
			}
		}
	})
}
