package graph

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomGraph builds a deterministic random retiming graph with n vertices,
// host-adjacent edges, and enough registers to keep it legal.
func randomGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 1; i < n; i++ {
		g.AddVertex("v", int64(1+rng.Intn(9))*1000)
	}
	// A registered ring keeps every vertex on a cycle through the host.
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n), int32(1+rng.Intn(2)))
	}
	// Extra edges only go forward (u < v), so every cycle passes through the
	// registered ring and no zero-weight cycle can arise.
	for i := 0; i < 3*n; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		g.AddEdge(VertexID(u), VertexID(v), int32(rng.Intn(3)))
	}
	return g
}

// TestComputeWDCancellation verifies the dense W/D computation surfaces ctx
// errors.
func TestComputeWDCancellation(t *testing.T) {
	g := randomGraph(4, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.ComputeWD(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// mustWD computes g's dense W/D matrices for a test.
func mustWD(t testing.TB, g *Graph) *WD {
	t.Helper()
	wd, err := g.ComputeWD(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// bruteWD enumerates all simple-ish paths (bounded depth) to cross-check
// W(u,v) and D(u,v). Cycles make full enumeration impossible, so the brute
// force walks up to maxLen edges, which suffices when weights are ≥1 on all
// cycles and graphs are tiny.
func bruteWD(g *Graph, maxLen int) (W [][]int32, D [][]int64) {
	n := g.NumVertices()
	W = make([][]int32, n)
	D = make([][]int64, n)
	for u := 0; u < n; u++ {
		W[u] = make([]int32, n)
		D[u] = make([]int64, n)
		for v := range W[u] {
			W[u][v] = InfW
		}
		W[u][u] = 0
		D[u][u] = g.Delay[u]
		type state struct {
			v     VertexID
			w     int32
			d     int64
			depth int
		}
		stack := []state{{VertexID(u), 0, g.Delay[u], 0}}
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
		g := New()
		n := 3 + rng.Intn(4)
		vs := make([]VertexID, n)
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
		g.AddEdge(Host, vs[0], 1)
		g.AddEdge(vs[n-1], Host, 1)
		if _, err := g.Period(nil); err != nil {
			continue // combinational cycle from the chords
		}

		wd := mustWD(t, g)
		// Depth bound: weights on every cycle ≥ 1 and max interesting
		// weight is small, so 4·n edges covers all minimum-weight paths.
		bw, bd := bruteWD(g, 4*g.NumVertices())
		for u := 0; u < g.NumVertices(); u++ {
			for v := 0; v < g.NumVertices(); v++ {
				gw, gd := wd.At(VertexID(u), VertexID(v))
				if gw != bw[u][v] {
					t.Fatalf("iter %d: W(%d,%d) = %d, brute %d", iter, u, v, gw, bw[u][v])
				}
				if gw != InfW && gd != bd[u][v] {
					t.Fatalf("iter %d: D(%d,%d) = %d, brute %d (W=%d)", iter, u, v, gd, bd[u][v], gw)
				}
			}
		}
	}
}
