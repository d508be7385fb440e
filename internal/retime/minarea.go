// Package retime implements basic minimum-area retiming in the style the
// paper builds on (Leiserson–Saxe §8 register sharing, solved through the
// min-cost-flow dual as in Shenoy–Rudell), extended with the per-vertex
// retiming bounds that multiple-class retiming imposes (paper §5.1).
//
// The ILP solved for a target period φ is exactly the paper's:
//
//	min  Σ c(v)·r(v)
//	s.t. r(u) − r(v)   ≤ w(e)        ∀ e_uv               (circuit)
//	     r(v_h) − r(v) ≤ −r_min(v)   ∀ v                  (class)
//	     r(v) − r(v_h) ≤ r_max(v)    ∀ v                  (class)
//	     r(u) − r(v)   ≤ W(u,v) − 1  ∀ D(u,v) > φ         (period)
//
// with the sharing cost model: every multi-fanout vertex u gets a mirror
// variable m_u with constraints r(v_i) − r(m_u) ≤ w_max(u) − w(e_i), so the
// registers on u's fanout edges are billed max_i w_r(e_i) = r(m_u) − r(u) +
// w_max(u). The constraint matrix stays a difference system, hence totally
// unimodular: the LP optimum is integral and is found as the shortest-path
// potentials of the optimal residual network of the dual flow.
package retime

import (
	"context"
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/mcf"
)

// MinAreaDense returns a legal retiming of g minimizing the shared register
// count at clock period phi, subject to bounds (nil = unconstrained), using
// the dense O(V²) W/D period-constraint scan. wd may be nil (computed
// internally). It fails if phi is infeasible.
//
// This is the demoted reference engine: the flow's primary path is the
// matrix-free cutting-plane solver (MinAreaLazy and friends), which reaches
// the same optimum without materializing W/D; the dense formulation survives
// as the cross-check for small graphs and the ground truth of the
// equivalence tests.
func MinAreaDense(g *graph.Graph, wd *graph.WD, phi int64, bounds *graph.Bounds) ([]int32, error) {
	if wd == nil {
		var err error
		if wd, err = g.ComputeWD(context.Background()); err != nil {
			return nil, err
		}
	}
	n := g.NumVertices()

	// Allocate mirror variables for multi-fanout vertices.
	mirror := make([]int, n) // var index of m_u, or -1
	nvars := n
	for v := 0; v < n; v++ {
		if len(g.Out(graph.VertexID(v))) >= 2 {
			mirror[v] = nvars
			nvars++
		} else {
			mirror[v] = -1
		}
	}

	// Cost coefficients.
	cost := make([]int64, nvars)
	type dcon struct {
		x, y int // r(x) − r(y) ≤ b
		b    int64
	}
	var cons []dcon
	for v := 0; v < n; v++ {
		outs := g.Out(graph.VertexID(v))
		if len(outs) == 0 {
			continue
		}
		if mirror[v] == -1 {
			e := g.Edges[outs[0]]
			// w_r(e) = w + r(to) − r(from): bill +r(to) − r(from).
			cost[e.To]++
			cost[e.From]--
			continue
		}
		var wmax int32
		for _, ei := range outs {
			if w := g.Edges[ei].W; w > wmax {
				wmax = w
			}
		}
		cost[mirror[v]]++
		cost[v]--
		for _, ei := range outs {
			e := g.Edges[ei]
			// r(v_i) − r(m_u) ≤ w_max − w(e_i)
			cons = append(cons, dcon{x: int(e.To), y: mirror[v], b: int64(wmax - e.W)})
		}
	}

	// Circuit constraints.
	for _, e := range g.Edges {
		cons = append(cons, dcon{x: int(e.From), y: int(e.To), b: int64(e.W)})
	}
	// Class bounds against the host.
	if bounds != nil {
		for v := 0; v < n; v++ {
			if lo := bounds.Min[v]; lo != graph.NoLower {
				cons = append(cons, dcon{x: int(graph.Host), y: v, b: int64(-lo)})
			}
			if hi := bounds.Max[v]; hi != graph.NoUpper {
				cons = append(cons, dcon{x: v, y: int(graph.Host), b: int64(hi)})
			}
		}
	}
	// Period constraints.
	for u := 0; u < n; u++ {
		row := u * n
		for v := 0; v < n; v++ {
			if wd.W[row+v] != graph.InfW && wd.D[row+v] > phi {
				cons = append(cons, dcon{x: u, y: v, b: int64(wd.W[row+v] - 1)})
			}
		}
	}

	// Dual transshipment: arc y→x with cost b per constraint. Stationarity
	// of the Lagrangian gives, per node, outflow − inflow = c(v), so node v
	// carries supply c(v).
	s := mcf.New(nvars)
	for _, c := range cons {
		s.AddArc(c.y, c.x, mcf.Inf, c.b)
	}
	for v := 0; v < nvars; v++ {
		s.AddSupply(v, cost[v])
	}
	if _, err := s.Solve(); err != nil {
		return nil, fmt.Errorf("retime: minarea dual at period %d: %w", phi, err)
	}
	pi, err := s.ResidualPotentials()
	if err != nil {
		return nil, fmt.Errorf("retime: %w", err)
	}

	r := make([]int32, n)
	h := pi[graph.Host]
	for v := 0; v < n; v++ {
		r[v] = int32(pi[v] - h)
	}
	if err := g.CheckLegal(r); err != nil {
		return nil, fmt.Errorf("retime: minarea produced illegal retiming: %w", err)
	}
	if err := bounds.Check(r); err != nil {
		return nil, fmt.Errorf("retime: minarea violated bounds: %w", err)
	}
	if got, err := g.Period(r); err != nil {
		return nil, fmt.Errorf("retime: minarea result: %w", err)
	} else if got > phi {
		return nil, fmt.Errorf("retime: minarea result has period %d > target %d", got, phi)
	}
	return r, nil
}

// SharedRegCount returns the register count of g under retiming r (nil =
// identity) with fanout sharing: a vertex's fanout edges share registers, so
// they cost max_i w_r(e_i).
func SharedRegCount(g *graph.Graph, r []int32) int64 {
	var total int64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		var wmax int32
		for _, ei := range g.Out(graph.VertexID(v)) {
			e := g.Edges[ei]
			w := e.W
			if r != nil {
				w = g.RetimedWeight(e, r)
			}
			if w > wmax {
				wmax = w
			}
		}
		total += int64(wmax)
	}
	return total
}

// MinPeriodMinArea runs the paper's two-phase flow on a basic retiming
// graph: find the minimum feasible period, then minimize registers at that
// period. It returns the period and the minarea retiming.
//
// The solve is matrix-free: the lazy binary search and the cutting-plane
// minarea loop share one cut pool and never materialize W/D. For the dense
// reference formulation, see MinPeriodMinAreaDense.
func MinPeriodMinArea(g *graph.Graph, bounds *graph.Bounds) (int64, []int32, error) {
	pool := &graph.CutPool{}
	phi, _, err := g.MinPeriodLazy(bounds, pool)
	if err != nil {
		return 0, nil, err
	}
	r, err := MinAreaLazy(g, phi, bounds, pool)
	if err != nil {
		return 0, nil, err
	}
	return phi, r, nil
}

// MinPeriodMinAreaDense is the two-phase flow over the dense W/D matrices:
// the demoted reference engine, kept as the small-graph cross-check.
func MinPeriodMinAreaDense(g *graph.Graph, bounds *graph.Bounds) (int64, []int32, error) {
	wd, err := g.ComputeWD(context.Background())
	if err != nil {
		return 0, nil, err
	}
	phi, _, err := g.MinPeriod(wd, bounds)
	if err != nil {
		return 0, nil, err
	}
	r, err := MinAreaDense(g, wd, phi, bounds)
	if err != nil {
		return 0, nil, err
	}
	return phi, r, nil
}
