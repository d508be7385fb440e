package oracle

import (
	"context"
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/rterr"
)

// FEAS is the Leiserson–Saxe feasibility algorithm (their Algorithm FEAS,
// restated in paper §2): starting from r = 0, repeat |V|−1 times — compute
// the arrival times Δ of the retimed graph and increment r(v) for every
// vertex with Δ(v) > φ. The period φ is feasible iff the final graph meets
// it. Unlike the constraint-graph formulations it needs no W/D matrices and
// no explicit period constraints, but it cannot handle the class bounds of
// multiple-class retiming.
//
// On success it returns a legal retiming achieving φ, normalized to
// r[Host] = 0 (FEAS may move the host, and retimings are invariant under a
// uniform shift).
func FEAS(g *graph.Graph, phi int64) ([]int32, bool) {
	n := g.NumVertices()
	r := make([]int32, n)
	delta := make([]int64, n)
	for iter := 0; iter < n-1; iter++ {
		if !arrivals(g, r, delta) {
			// Legal intermediate retimings of a well-formed graph keep
			// every cycle registered; treat a violation as infeasible.
			return nil, false
		}
		changed := false
		for v, d := range delta {
			if d > phi {
				r[v]++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if !arrivals(g, r, delta) {
		return nil, false
	}
	for _, d := range delta {
		if d > phi {
			return nil, false
		}
	}
	h := r[graph.Host]
	for i := range r {
		r[i] -= h
	}
	if g.CheckLegal(r) != nil {
		return nil, false
	}
	return r, true
}

// MinPeriodFEAS performs the classic minimum-period search: binary search
// over the candidate D values of the W/D matrices (wd may be nil), testing
// each with FEAS. It supports no retiming bounds (basic retiming only).
func MinPeriodFEAS(g *graph.Graph, wd *WD) (int64, []int32, error) {
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
	lo, hi := 0, len(cands)-1
	bestPhi := cands[hi]
	bestR, ok := FEAS(g, bestPhi)
	if !ok {
		return 0, nil, fmt.Errorf("oracle: FEAS rejects the maximum candidate %d: %w", bestPhi, rterr.ErrInfeasiblePeriod)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if r, ok := FEAS(g, cands[mid]); ok {
			bestPhi, bestR = cands[mid], r
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return bestPhi, bestR, nil
}

// arrivals fills delta with Δ(v) under retiming r: d(v) plus the largest
// arrival over v's fanin edges that carry no register after retiming,
// computed by memoized recursion. It reports false on a zero-weight cycle.
func arrivals(g *graph.Graph, r []int32, delta []int64) bool {
	const open, closed = 1, 2 // 0: not visited yet
	state := make([]int8, len(delta))
	var visit func(v graph.VertexID) bool
	visit = func(v graph.VertexID) bool {
		switch state[v] {
		case open:
			return false
		case closed:
			return true
		}
		state[v] = open
		var in int64
		for _, ei := range g.In(v) {
			e := g.Edges[ei]
			if g.RetimedWeight(e, r) != 0 {
				continue
			}
			if !visit(e.From) {
				return false
			}
			in = max(in, delta[e.From])
		}
		delta[v] = g.Delay[v] + in
		state[v] = closed
		return true
	}
	for v := range delta {
		if !visit(graph.VertexID(v)) {
			return false
		}
	}
	return true
}
