package oracle

import (
	"context"
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/mcf"
)

// MinAreaDense returns a legal retiming of g minimizing the shared register
// count at clock period phi, subject to bounds (nil = unconstrained). It
// solves the ILP of the retime package comment with every period constraint
// of the dense W/D scan written out, through the same min-cost-flow dual the
// production solver uses. wd may be nil (computed internally). It fails if
// phi is infeasible.
//
// The production path is retime.MinAreaLazy, which reaches the same optimum
// from lazily generated period cuts without materializing W/D.
func MinAreaDense(g *graph.Graph, wd *WD, phi int64, bounds *graph.Bounds) ([]int32, error) {
	if wd == nil {
		var err error
		if wd, err = ComputeWD(context.Background(), g); err != nil {
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
			if wd.W[row+v] != InfW && wd.D[row+v] > phi {
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
		return nil, fmt.Errorf("oracle: minarea dual at period %d: %w", phi, err)
	}
	pi, err := s.ResidualPotentials()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	r := make([]int32, n)
	h := pi[graph.Host]
	for v := 0; v < n; v++ {
		r[v] = int32(pi[v] - h)
	}
	if err := g.CheckLegal(r); err != nil {
		return nil, fmt.Errorf("oracle: minarea produced illegal retiming: %w", err)
	}
	if err := bounds.Check(r); err != nil {
		return nil, fmt.Errorf("oracle: minarea violated bounds: %w", err)
	}
	if got, err := g.Period(r); err != nil {
		return nil, fmt.Errorf("oracle: minarea result: %w", err)
	} else if got > phi {
		return nil, fmt.Errorf("oracle: minarea result has period %d > target %d", got, phi)
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
