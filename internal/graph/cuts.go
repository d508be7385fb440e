package graph

import "fmt"

// CutSweep computes the period cuts violated by a sequence of retimings of
// one graph: one cut per vertex whose zero-weight arrival exceeds φ, traced
// back along the critical parent chain. A cutting-plane loop changes r in
// only a few vertices per round, so the sweep keeps the last round's r,
// arrivals and parents and recomputes only
//
//   - the vertices whose r changed and the heads of their out-edges whose
//     zero-weight status flipped (their in-edge sets changed), and
//   - the forward zero-weight cone of those vertices, as far as an arrival
//     actually changes.
//
// Every other vertex keeps its arrival: its zero-weight in-edges and their
// tails' arrivals are unchanged. The critical parent of a vertex is a
// function of its in-edges alone — among the zero-weight predecessors of
// maximal positive arrival, the lowest vertex ID — so the incremental and
// the full sweep emit identical cuts whatever order they visit vertices in.
//
// A sweep without prior state for this graph (the first, one after a graph
// change such as WithDelays, or after a failed sweep), or one whose r moved
// in many vertices, runs the full O(V+E) Kahn sweep instead.
//
// The zero value is ready to use. A CutSweep is not safe for concurrent use.
type CutSweep struct {
	g      *Graph
	prevR  []int32 // r of the last sweep; nil = no usable prior state
	delta  []int64 // zero-weight arrival per vertex under prevR
	parent []VertexID

	indeg   []int32 // full sweep: Kahn in-degrees
	queue   []VertexID
	inQueue []bool     // incremental sweep: worklist membership
	changed []VertexID // incremental sweep: vertices whose r moved

	// root memoises each vertex's critical root for the current sweep:
	// valid where rootAt equals epoch.
	root   []VertexID
	rootAt []uint32
	epoch  uint32
	path   []VertexID
}

// Cuts returns the period cuts r violates at phi, in vertex order of the
// violating vertex, and the period r achieves (the maximum zero-weight
// arrival). An empty result means r achieves phi. It errors if r leaves a
// zero-weight cycle.
func (cs *CutSweep) Cuts(g *Graph, r []int32, phi int64) ([]Cut, int64, error) {
	n := g.NumVertices()
	if cs.g != g || len(cs.delta) != n {
		cs.bind(g)
	}
	if cs.prevR == nil || !cs.incremental(r) {
		if err := cs.full(r); err != nil {
			cs.prevR = nil
			return nil, 0, err
		}
	}
	cs.prevR = append(cs.prevR[:0], r...)
	return cs.emit(r, phi), cs.maxArrival(), nil
}

// bind sizes the buffers for g and drops any prior state.
func (cs *CutSweep) bind(g *Graph) {
	n := g.NumVertices()
	cs.g = g
	cs.prevR = nil
	if cap(cs.delta) < n {
		cs.delta = make([]int64, n)
		cs.parent = make([]VertexID, n)
		cs.indeg = make([]int32, n)
		cs.inQueue = make([]bool, n)
		cs.root = make([]VertexID, n)
		cs.rootAt = make([]uint32, n)
		cs.queue = make([]VertexID, 0, n)
	}
	cs.delta, cs.parent, cs.indeg = cs.delta[:n], cs.parent[:n], cs.indeg[:n]
	cs.inQueue, cs.root, cs.rootAt = cs.inQueue[:n], cs.root[:n], cs.rootAt[:n]
	clear(cs.inQueue)
	clear(cs.rootAt)
	cs.epoch = 0
}

// relax offers predecessor u, reaching v over a zero-weight edge, as v's
// critical parent: a strictly later arrival wins, and among equal positive
// arrivals the lowest vertex ID does.
func (cs *CutSweep) relax(u, v VertexID) {
	a := cs.delta[u] + cs.g.Delay[v]
	if a > cs.delta[v] || (a == cs.delta[v] && cs.parent[v] != -1 && u < cs.parent[v]) {
		cs.delta[v] = a
		cs.parent[v] = u
	}
}

// full recomputes every arrival and parent by Kahn's algorithm over the
// zero-weight subgraph of r.
func (cs *CutSweep) full(r []int32) error {
	g := cs.g
	n := g.NumVertices()
	indeg := cs.indeg
	clear(indeg)
	for _, e := range g.Edges {
		if g.RetimedWeight(e, r) == 0 {
			indeg[e.To]++
		}
	}
	queue := cs.queue[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
		cs.delta[v] = g.Delay[v]
		cs.parent[v] = -1
	}
	done := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, ei := range g.out[u] {
			e := g.Edges[ei]
			if g.RetimedWeight(e, r) != 0 {
				continue
			}
			cs.relax(u, e.To)
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	cs.queue = queue[:0] // keep grown backing for the next sweep
	if done != n {
		return fmt.Errorf("graph: zero-weight cycle under candidate retiming")
	}
	return nil
}

// incremental updates the arrivals and parents of prevR to r and reports
// whether it did; false (state untouched or partly updated) asks for a full
// sweep. It declines when r moved in more than an eighth of the vertices (or
// 16, on small graphs), and gives up when its worklist has recomputed more
// vertices than the graph has: past either a full sweep is cheaper.
func (cs *CutSweep) incremental(r []int32) bool {
	g, prev := cs.g, cs.prevR
	n := g.NumVertices()
	cs.changed = cs.changed[:0]
	for v := 0; v < n; v++ {
		if r[v] != prev[v] {
			if len(cs.changed) >= max(n/8, 16) {
				return false
			}
			cs.changed = append(cs.changed, VertexID(v))
		}
	}
	queue := cs.queue[:0]
	push := func(v VertexID) {
		if !cs.inQueue[v] {
			cs.inQueue[v] = true
			queue = append(queue, v)
		}
	}
	for _, v := range cs.changed {
		push(v)
		for _, ei := range g.out[v] {
			e := g.Edges[ei]
			if (g.RetimedWeight(e, r) == 0) != (g.RetimedWeight(e, prev) == 0) {
				push(e.To)
			}
		}
	}
	ok := true
	for head := 0; head < len(queue); head++ {
		if head > n {
			ok = false
			for _, v := range queue[head:] {
				cs.inQueue[v] = false
			}
			break
		}
		v := queue[head]
		cs.inQueue[v] = false
		old := cs.delta[v]
		cs.delta[v] = g.Delay[v]
		cs.parent[v] = -1
		for _, ei := range g.in[v] {
			if e := g.Edges[ei]; g.RetimedWeight(e, r) == 0 {
				cs.relax(e.From, v)
			}
		}
		if cs.delta[v] == old {
			continue
		}
		for _, ei := range g.out[v] {
			if e := g.Edges[ei]; g.RetimedWeight(e, r) == 0 {
				push(e.To)
			}
		}
	}
	cs.queue = queue[:0]
	return ok
}

// emit builds the cuts of the current arrivals at phi, walking each
// violating vertex's parent chain to its root once per sweep.
func (cs *CutSweep) emit(r []int32, phi int64) []Cut {
	cs.epoch++
	if cs.epoch == 0 {
		clear(cs.rootAt)
		cs.epoch = 1
	}
	var cuts []Cut
	for v, d := range cs.delta {
		if d <= phi {
			continue
		}
		u := cs.rootOf(VertexID(v))
		// Path weight w(p) = r(u) − r(v) because every edge is tight.
		cuts = append(cuts, Cut{
			Constraint: Constraint{Y: VertexID(v), X: u, B: r[u] - r[v] - 1},
			PathDelay:  d,
		})
	}
	return cuts
}

// rootOf returns the first vertex of v's critical parent chain, memoising
// it for every vertex the walk passes.
func (cs *CutSweep) rootOf(v VertexID) VertexID {
	path := cs.path[:0]
	u := v
	for cs.rootAt[u] != cs.epoch && cs.parent[u] != -1 {
		path = append(path, u)
		u = cs.parent[u]
	}
	root := u
	if cs.rootAt[u] == cs.epoch {
		root = cs.root[u]
	}
	for _, x := range path {
		cs.root[x], cs.rootAt[x] = root, cs.epoch
	}
	cs.path = path[:0]
	return root
}

func (cs *CutSweep) maxArrival() int64 {
	var m int64
	for _, d := range cs.delta {
		m = max(m, d)
	}
	return m
}
