package graph

import (
	"math/rand"
	"testing"
)

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
