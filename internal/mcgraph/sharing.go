package mcgraph

import (
	"context"

	"mcretiming/internal/graph"
	"mcretiming/internal/trace"
)

// AreaGraph builds the basic retiming graph fed to the minperiod/minarea
// solvers: the projection of m plus, per multi-fanout vertex, the
// separation vertices of §4.2 that keep the Leiserson–Saxe sharing cost
// from undercounting incompatible registers.
//
// For each multi-fanout vertex u, the register layers of the maximally
// backward retimed graph (info.BackwardClasses) are traversed source→sink;
// at each layer the largest compatible set is kept and everything else is
// cut.
// For a fanout edge e_i with τ_i registers right of the cut, a zero-delay
// separation vertex s_i splits e_i; s_i is billed as a single-fanout vertex
// by the cost model and its backward bound follows Eq. 3:
//
//	r_max(s_i) = max(r_max(v_i) − τ_i, 0).
//
// The τ_i − r_max(v_i) surplus (if positive) of the initial registers is
// placed on the s_i→v_i stub, the rest on u→s_i — the rewind of the maximal
// backward retiming, in closed form.
//
// Separation vertices exist only in the returned graph/bounds; retiming
// values at indices ≥ len(m.Verts) are solver-internal and dropped when the
// solution is applied to the mc-graph.
//
// ctx is polled between multi-fanout vertices; on cancellation the context's
// error is returned.
func (m *MC) AreaGraph(ctx context.Context, info *BoundsInfo) (*graph.Graph, *graph.Bounds, error) {
	delay, name := m.vertexTables()
	var edges []graph.Edge
	addEdge := func(u, v graph.VertexID, w int32) {
		edges = append(edges, graph.Edge{From: u, To: v, W: w})
	}
	gb := info.GraphBounds(m)
	// Bounds slices grow as separation vertices are added.
	addVertexBound := func(min, max int32) graph.VertexID {
		v := graph.VertexID(len(delay))
		delay = append(delay, 0)
		name = append(name, "sep")
		gb.Min = append(gb.Min, min)
		gb.Max = append(gb.Max, max)
		return v
	}

	// Decide cuts per multi-fanout vertex on the backward-retimed graph.
	// tau[edge index] = number of non-sharable registers (right of cut).
	tau := make([]int32, len(m.Edges))
	var fanout []int32
	for v := range m.Verts {
		if len(m.out[v]) >= 2 {
			fanout = append(fanout, int32(v))
		}
	}
	for _, v := range fanout {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		m.cutFanout(info.BackwardClasses, v, tau)
	}
	trace.From(ctx).Add("share-fanout-vertices", int64(len(fanout)))

	// Emit edges, splitting those with a cut. Host-adjacent edges are
	// omitted (see ToGraph).
	for i := range m.Edges {
		e := &m.Edges[i]
		if e.From == graph.Host || e.To == graph.Host {
			continue
		}
		w := int32(len(e.Regs))
		t := tau[i]
		if t == 0 || e.NoMove {
			addEdge(e.From, e.To, w)
			continue
		}
		vi := e.To
		rmaxV := info.RMax[vi]
		// Initial registers on the sink stub (closed-form rewind).
		stub := t - rmaxV
		if info.UnboundedMax[vi] || stub < 0 {
			stub = 0
		}
		if stub > w {
			stub = w
		}
		var sepMax int32
		switch {
		case info.UnboundedMax[vi]:
			sepMax = graph.NoUpper
		case rmaxV > t:
			sepMax = rmaxV - t
		default:
			sepMax = 0
		}
		s := addVertexBound(graph.NoLower, sepMax)
		addEdge(e.From, s, w-stub)
		addEdge(s, vi, stub)
	}
	return graph.FromEdges(delay, name, edges), gb, nil
}

// cutFanout runs the §4.2 layer-cut analysis for one multi-fanout vertex v
// on the backward-retimed class sequences bw, writing the non-sharable
// register counts into tau at v's own out-edge indices only.
func (m *MC) cutFanout(bw [][]ClassID, v int32, tau []int32) {
	selected := append([]int32(nil), m.out[v]...)
	for layer := 0; ; layer++ {
		// Group the selected edges that still have a register at this
		// layer by the register's class.
		groups := make(map[ClassID][]int32)
		for _, ei := range selected {
			regs := bw[ei]
			if layer < len(regs) {
				groups[regs[layer]] = append(groups[regs[layer]], ei)
			}
		}
		if len(groups) == 0 {
			return // all remaining edges fully consumed: fully sharable
		}
		var best ClassID
		bestN := -1
		for cls, es := range groups {
			if len(es) > bestN || (len(es) == bestN && cls < best) {
				best, bestN = cls, len(es)
			}
		}
		// Everything selected but outside the winning group is cut at
		// this layer; its remaining registers are non-sharable.
		for _, ei := range selected {
			regs := bw[ei]
			if layer >= len(regs) {
				continue // consumed: sharable in full
			}
			inBest := false
			for _, bi := range groups[best] {
				if bi == ei {
					inBest = true
					break
				}
			}
			if !inBest {
				tau[ei] = int32(len(regs) - layer)
			}
		}
		selected = groups[best]
	}
}
