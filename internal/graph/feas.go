package graph

import (
	"context"
	"fmt"

	"mcretiming/internal/rterr"
)

// feasScratch holds the buffers one FEAS probe needs; MinPeriodFEAS reuses
// a single instance across every iteration of its binary search instead of
// reallocating per candidate period.
type feasScratch struct {
	r     []int32
	delta []int64
	indeg []int32
	queue []VertexID
}

func (g *Graph) newFeasScratch() *feasScratch {
	n := g.NumVertices()
	return &feasScratch{
		r:     make([]int32, n),
		delta: make([]int64, n),
		indeg: make([]int32, n),
		queue: make([]VertexID, 0, n),
	}
}

// FEAS is the Leiserson–Saxe feasibility algorithm (their Algorithm FEAS,
// restated in paper §2): starting from r = 0, repeat |V|−1 times — compute
// the arrival times Δ of the retimed graph and increment r(v) for every
// vertex with Δ(v) > φ. The period φ is feasible iff the final graph meets
// it. Unlike the constraint-graph formulations it needs no W/D matrices and
// no explicit period constraints, but it cannot handle the class bounds of
// multiple-class retiming; it is kept as the classic reference engine and a
// cross-check oracle for the other two.
//
// On success it returns a legal retiming achieving φ (normalized to
// r[Host] = 0 — FEAS may move the host, and retimings are invariant under a
// uniform shift).
func (g *Graph) FEAS(phi int64) ([]int32, bool) {
	return g.feasWith(phi, g.newFeasScratch())
}

// feasWith is FEAS running entirely inside sc's buffers; the returned
// retiming is copied out so sc can be reused by the next probe.
func (g *Graph) feasWith(phi int64, sc *feasScratch) ([]int32, bool) {
	n := g.NumVertices()
	r := sc.r
	for i := range r {
		r[i] = 0
	}
	for iter := 0; iter < n-1; iter++ {
		if err := g.arrivalsBuf(r, sc.delta, sc.indeg, sc.queue); err != nil {
			// A zero-weight cycle mid-iteration cannot happen for legal
			// intermediate retimings of a well-formed graph; treat as
			// infeasible defensively.
			return nil, false
		}
		changed := false
		for v := 0; v < n; v++ {
			if sc.delta[v] > phi {
				r[v]++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if err := g.arrivalsBuf(r, sc.delta, sc.indeg, sc.queue); err != nil {
		return nil, false
	}
	for _, d := range sc.delta {
		if d > phi {
			return nil, false
		}
	}
	h := r[Host]
	for i := range r {
		r[i] -= h
	}
	if g.CheckLegal(r) != nil {
		return nil, false
	}
	return append([]int32(nil), r...), true
}

// MinPeriodFEAS performs the classic minimum-period search: binary search
// over the candidate D values of the W/D matrices, testing each with FEAS.
// It supports no retiming bounds (basic retiming only). One scratch is
// shared by every probe of the search.
func (g *Graph) MinPeriodFEAS(wd *WD) (int64, []int32, error) {
	if wd == nil {
		var err error
		if wd, err = g.ComputeWD(context.Background()); err != nil {
			return 0, nil, err
		}
	}
	cands := wd.Candidates()
	if len(cands) == 0 {
		return 0, make([]int32, g.NumVertices()), nil
	}
	sc := g.newFeasScratch()
	lo, hi := 0, len(cands)-1
	bestPhi := cands[hi]
	bestR, ok := g.feasWith(bestPhi, sc)
	if !ok {
		return 0, nil, fmt.Errorf("graph: FEAS rejects the maximum candidate %d: %w", bestPhi, rterr.ErrInfeasiblePeriod)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if r, ok := g.feasWith(cands[mid], sc); ok {
			bestPhi, bestR = cands[mid], r
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return bestPhi, bestR, nil
}
