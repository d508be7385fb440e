package graph_test

// The reference engines' own tests: internal/oracle's dense W/D matrices,
// FEAS and dense minimum-period search, pinned on graph's fixtures and
// against brute force. They exercise no production solver.

import (
	"context"
	"math/rand"
	"testing"

	"mcretiming/internal/graph"
	"mcretiming/internal/oracle"
)

// mustWD computes g's dense W/D matrices for a test.
func mustWD(t testing.TB, g *graph.Graph) *oracle.WD {
	t.Helper()
	wd, err := oracle.ComputeWD(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestCorrelatorMinPeriod(t *testing.T) {
	g := graph.Correlator()
	phi, r, err := oracle.MinPeriod(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 13 {
		t.Errorf("min period = %d, want 13", phi)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	got, err := g.Period(r)
	if err != nil {
		t.Fatal(err)
	}
	if got != 13 {
		t.Errorf("achieved period = %d, want 13", got)
	}
}

func TestCorrelatorWD(t *testing.T) {
	g := graph.Correlator()
	wd := mustWD(t, g)
	// c1 ⇝ a3 direct: weight 0, delay 3+7 = 10.
	if w, d := wd.At(1, 7); w != 0 || d != 10 {
		t.Errorf("W,D(c1,a3) = %d,%d, want 0,10", w, d)
	}
	// c1 ⇝ a1: min weight is 2 (through c2,c3); D over those paths:
	// c1 c2 c3 a1 = 3+3+3+7 = 16 vs c1 c2 c3 c4 a1 = 3+3+3+3+7 = 19 but
	// that path has weight 3; tight max is 16.
	if w, d := wd.At(1, 5); w != 2 || d != 16 {
		t.Errorf("W,D(c1,a1) = %d,%d, want 2,16", w, d)
	}
	// Diagonal: trivial path.
	if w, d := wd.At(5, 5); w != 0 || d != 7 {
		t.Errorf("W,D(a1,a1) = %d,%d, want 0,7", w, d)
	}
}

func TestZeroBoundsForceOriginalPeriod(t *testing.T) {
	g := graph.Correlator()
	b := graph.NewBounds(g.NumVertices())
	for v := range b.Min {
		b.Min[v], b.Max[v] = 0, 0
	}
	phi, r, err := oracle.MinPeriod(g, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 24 {
		t.Errorf("pinned min period = %d, want 24", phi)
	}
	for v, rv := range r {
		if rv != 0 {
			t.Errorf("r(%d) = %d, want 0", v, rv)
		}
	}
}

func TestPartialBoundsRespected(t *testing.T) {
	g := graph.Correlator()
	b := graph.NewBounds(g.NumVertices())
	// Forbid moving anything backward past one layer.
	for v := 1; v < g.NumVertices(); v++ {
		b.Max[v] = 1
		b.Min[v] = -1
	}
	phi, r, err := oracle.MinPeriod(g, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(r); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	if phi < 13 || phi > 24 {
		t.Errorf("bounded min period = %d, outside [13,24]", phi)
	}
}

// Random DAG-ish graphs: MinPeriod must return a legal retiming achieving
// the reported period, and no feasible candidate below it may exist.
func TestMinPeriodRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		g := graph.New()
		n := 4 + rng.Intn(12)
		vs := make([]graph.VertexID, n)
		for i := 0; i < n; i++ {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(9)))
		}
		// A register-rich ring keeps every cycle legal, plus random chords.
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(vs[u], vs[v], int32(1+rng.Intn(3)))
		}
		g.AddEdge(graph.Host, vs[0], 1)
		g.AddEdge(vs[n-1], graph.Host, 1)

		wd := mustWD(t, g)
		phi, r, err := oracle.MinPeriod(g, wd, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := g.Period(r)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got > phi {
			t.Fatalf("iter %d: achieved %d > reported %d", iter, got, phi)
		}
		// No candidate strictly below phi may be feasible.
		for _, c := range wd.Candidates() {
			if c < phi {
				if _, ok := oracle.Feasible(g, c, wd, nil); ok {
					t.Fatalf("iter %d: period %d feasible below reported min %d", iter, c, phi)
				}
			}
		}
	}
}

func TestFEASCorrelator(t *testing.T) {
	g := graph.Correlator()
	if _, ok := oracle.FEAS(g, 12); ok {
		t.Error("FEAS accepted period 12 (optimum is 13)")
	}
	r, ok := oracle.FEAS(g, 13)
	if !ok {
		t.Fatal("FEAS rejected the optimal period 13")
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	if p, _ := g.Period(r); p > 13 {
		t.Errorf("achieved %d, want <= 13", p)
	}
	phi, _, err := oracle.MinPeriodFEAS(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 13 {
		t.Errorf("FEAS min period = %d, want 13", phi)
	}
}

// All three minperiod engines must agree on unbounded problems.
func TestThreeEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 50; iter++ {
		g := graph.New()
		n := 4 + rng.Intn(12)
		vs := make([]graph.VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(9)))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < n/2; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(vs[u], vs[v], int32(1+rng.Intn(3)))
		}
		g.AddEdge(graph.Host, vs[0], 1)
		g.AddEdge(vs[n-1], graph.Host, 1)

		wd := mustWD(t, g)
		phiDense, _, err := oracle.MinPeriod(g, wd, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		phiFEAS, _, err := oracle.MinPeriodFEAS(g, wd)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		phiLazy, _, err := g.MinPeriodLazy(context.Background(), nil, nil, graph.NewProbeLadder())
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if phiDense != phiFEAS || phiDense != phiLazy {
			t.Fatalf("iter %d: engines disagree: dense=%d FEAS=%d lazy=%d",
				iter, phiDense, phiFEAS, phiLazy)
		}
	}
}

// bruteWD enumerates all simple-ish paths (bounded depth) to cross-check
// W(u,v) and D(u,v). Cycles make full enumeration impossible, so the brute
// force walks up to maxLen edges, which suffices when weights are ≥1 on all
// cycles and graphs are tiny.
func bruteWD(g *graph.Graph, maxLen int) (W [][]int32, D [][]int64) {
	n := g.NumVertices()
	W = make([][]int32, n)
	D = make([][]int64, n)
	for u := 0; u < n; u++ {
		W[u] = make([]int32, n)
		D[u] = make([]int64, n)
		for v := range W[u] {
			W[u][v] = oracle.InfW
		}
		W[u][u] = 0
		D[u][u] = g.Delay[u]
		type state struct {
			v     graph.VertexID
			w     int32
			d     int64
			depth int
		}
		stack := []state{{graph.VertexID(u), 0, g.Delay[u], 0}}
		for len(stack) > 0 {
			st := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if st.depth >= maxLen {
				continue
			}
			for _, ei := range g.Out(st.v) {
				e := g.Edges[ei]
				nw := st.w + e.W
				nd := st.d + g.Delay[e.To]
				// Record if this path improves (smaller weight, or equal
				// weight with larger delay).
				improved := false
				if nw < W[u][e.To] {
					W[u][e.To] = nw
					D[u][e.To] = nd
					improved = true
				} else if nw == W[u][e.To] && nd > D[u][e.To] {
					D[u][e.To] = nd
					improved = true
				}
				// Continue exploring: a longer path may still lead to
				// better downstream entries, so bound only by depth.
				_ = improved
				stack = append(stack, state{e.To, nw, nd, st.depth + 1})
			}
		}
	}
	return W, D
}

func TestWDMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 25; iter++ {
		g := graph.New()
		n := 3 + rng.Intn(4)
		vs := make([]graph.VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(7)))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < 2; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(vs[u], vs[v], int32(rng.Intn(3)))
			}
		}
		g.AddEdge(graph.Host, vs[0], 1)
		g.AddEdge(vs[n-1], graph.Host, 1)
		if _, err := g.Period(nil); err != nil {
			continue // combinational cycle from the chords
		}

		wd := mustWD(t, g)
		// Depth bound: weights on every cycle ≥ 1 and max interesting
		// weight is small, so 4·n edges covers all minimum-weight paths.
		bw, bd := bruteWD(g, 4*g.NumVertices())
		for u := 0; u < g.NumVertices(); u++ {
			for v := 0; v < g.NumVertices(); v++ {
				gw, gd := wd.At(graph.VertexID(u), graph.VertexID(v))
				if gw != bw[u][v] {
					t.Fatalf("iter %d: W(%d,%d) = %d, brute %d", iter, u, v, gw, bw[u][v])
				}
				if gw != oracle.InfW && gd != bd[u][v] {
					t.Fatalf("iter %d: D(%d,%d) = %d, brute %d (W=%d)", iter, u, v, gd, bd[u][v], gw)
				}
			}
		}
	}
}
