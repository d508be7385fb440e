package oracle

import (
	"context"
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/rterr"
)

// Feasible decides whether clock period phi is feasible under the circuit
// constraints, every period constraint derived from wd, and the class bounds
// (nil = none). On success it returns a legal retiming with r[Host] = 0.
//
// This is the paper's §5.1 formulation in full: the class constraints become
// difference constraints against the host vertex, and the whole system is
// solved as shortest paths from a virtual source.
func Feasible(g *graph.Graph, phi int64, wd *WD, bounds *graph.Bounds) ([]int32, bool) {
	cons := append(baseConstraints(g, bounds), periodConstraints(wd, phi)...)
	r, ok := SolveDifference(g.NumVertices(), cons)
	if !ok {
		return nil, false
	}
	h := r[graph.Host]
	for i := range r {
		r[i] -= h
	}
	return r, true
}

// MinPeriod finds the minimum feasible clock period under the given bounds
// by binary search over the candidate D values, and returns it with a legal
// retiming achieving it. wd may be nil (computed internally).
func MinPeriod(g *graph.Graph, wd *WD, bounds *graph.Bounds) (int64, []int32, error) {
	if wd == nil {
		var err error
		if wd, err = ComputeWD(context.Background(), g); err != nil {
			return 0, nil, err
		}
	}
	cands := wd.Candidates()
	if len(cands) == 0 {
		return 0, make([]int32, g.NumVertices()), nil
	}
	// The largest candidate imposes no period constraint, so only the
	// bounds can make it infeasible.
	lo, hi := 0, len(cands)-1
	bestPhi := cands[hi]
	bestR, ok := Feasible(g, bestPhi, wd, bounds)
	if !ok {
		return 0, nil, fmt.Errorf("oracle: even period %d infeasible (conflicting bounds?): %w", bestPhi, rterr.ErrInfeasiblePeriod)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if r, ok := Feasible(g, cands[mid], wd, bounds); ok {
			bestPhi, bestR = cands[mid], r
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return bestPhi, bestR, nil
}

// baseConstraints returns the circuit constraints r(u) − r(v) ≤ w(e), one per
// edge, and the §5.1 class-bound constraints of bounds against the host.
func baseConstraints(g *graph.Graph, bounds *graph.Bounds) []graph.Constraint {
	var cons []graph.Constraint
	for _, e := range g.Edges {
		cons = append(cons, graph.Constraint{Y: e.To, X: e.From, B: e.W})
	}
	if bounds == nil {
		return cons
	}
	for v := range bounds.Min {
		if lo := bounds.Min[v]; lo != graph.NoLower {
			cons = append(cons, graph.Constraint{Y: graph.VertexID(v), X: graph.Host, B: -lo})
		}
		if hi := bounds.Max[v]; hi != graph.NoUpper {
			cons = append(cons, graph.Constraint{Y: graph.Host, X: graph.VertexID(v), B: hi})
		}
	}
	return cons
}

// periodConstraints returns r(u) − r(v) ≤ W(u,v) − 1 for every pair whose
// minimum-weight paths are too slow for phi (D(u,v) > phi).
func periodConstraints(wd *WD, phi int64) []graph.Constraint {
	var cons []graph.Constraint
	for i, w := range wd.W {
		if w != InfW && wd.D[i] > phi {
			u, v := i/wd.N, i%wd.N
			cons = append(cons, graph.Constraint{Y: graph.VertexID(v), X: graph.VertexID(u), B: w - 1})
		}
	}
	return cons
}

// SolveDifference solves the difference constraints r(X) − r(Y) ≤ B over n
// variables as shortest paths from a virtual source joined to every variable
// by a zero-weight arc, relaxed in FIFO order. It returns the shortest-path
// labeling, or ok=false if the system is infeasible (a negative cycle).
//
// A negative cycle shows up as a cycle of predecessor pointers, which a walk
// every n relaxations finds; as a backstop, no shortest path from the
// virtual source has more than n arcs.
func SolveDifference(n int, cons []graph.Constraint) ([]int32, bool) {
	// Constraint indices grouped by source variable Y.
	first := make([]int, n+1)
	for _, c := range cons {
		first[c.Y+1]++
	}
	for v := 0; v < n; v++ {
		first[v+1] += first[v]
	}
	byY := make([]int, len(cons))
	next := append([]int(nil), first[:n]...)
	for i, c := range cons {
		byY[next[c.Y]] = i
		next[c.Y]++
	}

	dist := make([]int64, n)
	arcs := make([]int, n) // arcs on the current shortest path to each variable
	pred := make([]int32, n)
	inQueue := make([]bool, n)
	ring := make([]int32, n) // FIFO; inQueue keeps at most n entries live
	head, size := 0, n
	for v := 0; v < n; v++ {
		arcs[v], pred[v], inQueue[v], ring[v] = 1, -1, true, int32(v)
	}
	walk := make([]int32, n)
	relaxations := 0
	for size > 0 {
		y := ring[head]
		head = (head + 1) % n
		size--
		inQueue[y] = false
		for _, ci := range byY[first[y]:first[y+1]] {
			c := cons[ci]
			x := c.X
			nd := dist[y] + int64(c.B)
			if nd >= dist[x] {
				continue
			}
			dist[x], pred[x], arcs[x] = nd, y, arcs[y]+1
			if arcs[x] > n {
				return nil, false
			}
			if relaxations++; relaxations%n == 0 && predCycle(pred, walk) {
				return nil, false
			}
			if !inQueue[x] {
				inQueue[x] = true
				ring[(head+size)%n] = int32(x)
				size++
			}
		}
	}
	r := make([]int32, n)
	for v, d := range dist {
		r[v] = int32(d)
	}
	return r, true
}

// predCycle reports whether following pred from some variable returns to
// it. Each walk stamps the variables it passes with its start; meeting its
// own stamp again closes a cycle, meeting an older stamp or -1 does not.
func predCycle(pred, walk []int32) bool {
	for i := range walk {
		walk[i] = -1
	}
	for s := range pred {
		v := int32(s)
		for v >= 0 && walk[v] < 0 {
			walk[v] = int32(s)
			v = pred[v]
		}
		if v >= 0 && walk[v] == int32(s) {
			return true
		}
	}
	return false
}
