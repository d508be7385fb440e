// Package graph implements the classic Leiserson–Saxe retiming graph
// G = (V, E, d, w) and the basic retiming machinery built on it:
//
//   - clock-period (Δ) computation of a retimed graph,
//   - the candidate clock periods, streamed from the rows of the W(u,v) /
//     D(u,v) matrices (minimum path weight, and maximum path delay over
//     minimum-weight paths) without materializing them,
//   - feasibility of a target period as a system of difference constraints
//     solved by Bellman–Ford over lazily generated period cuts, including
//     the per-vertex retiming bounds that multiple-class retiming adds
//     (paper §4.1 and §5.1),
//   - minimum-period search, warm-started across probes.
//
// Every feasible probe returns the canonical labeling at its period — the
// pointwise-largest retiming meeting every period constraint — whichever
// cuts, checkpoints and critical-path tie-breaks led there, so the probe
// ladder (warm.go) and the incremental period-cut sweep (CutSweep, which
// re-sweeps only the vertices a round's r moved and the zero-weight cone
// whose arrivals they change) are free to cut work without moving a result.
//
// The dense references — the W/D matrices themselves, FEAS, and feasibility
// over every period constraint — live in the test-only internal/oracle
// package.
//
// Vertex 0 is always the host vertex v_h modelling the environment; its
// retiming value is pinned to 0 (registers may not cross the circuit's I/O).
package graph

import (
	"fmt"
)

// VertexID indexes a vertex of a Graph. The host is vertex 0.
type VertexID int32

// Host is the environment vertex v_h.
const Host VertexID = 0

// Edge is a directed connection u→v carrying W registers.
type Edge struct {
	From, To VertexID
	W        int32
}

// Graph is a retiming graph. Vertices carry propagation delays in
// picoseconds; edges carry register counts.
type Graph struct {
	Delay []int64
	Name  []string
	Edges []Edge
	out   [][]int32 // per vertex: indices into Edges
	in    [][]int32
}

// New returns a graph containing only the host vertex (delay 0).
func New() *Graph {
	g := &Graph{}
	g.AddVertex("host", 0)
	return g
}

// FromEdges returns the graph over the vertices with the given delays and
// names, the host first, and the given edges. It keeps the three slices and
// lays the adjacency out once, every vertex's edge lists being windows into
// one array per direction; AddVertex and AddEdge keep working on the result.
func FromEdges(delay []int64, name []string, edges []Edge) *Graph {
	return &Graph{
		Delay: delay, Name: name, Edges: edges,
		out: Adjacency(len(delay), len(edges), func(i int) VertexID { return edges[i].From }),
		in:  Adjacency(len(delay), len(edges), func(i int) VertexID { return edges[i].To }),
	}
}

// Adjacency returns, for every vertex v < n, the indices i < m with
// end(i) == v in increasing order. The lists are windows into one array,
// their capacities clipped so that appending to one never spills into the
// next.
func Adjacency(n, m int, end func(i int) VertexID) [][]int32 {
	start := make([]int32, n+1)
	for i := 0; i < m; i++ {
		start[end(i)+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	flat := make([]int32, m)
	adj := make([][]int32, n)
	for v := range adj {
		adj[v] = flat[start[v]:start[v]:start[v+1]]
	}
	for i := 0; i < m; i++ {
		v := end(i)
		adj[v] = append(adj[v], int32(i))
	}
	return adj
}

// AddVertex adds a vertex with the given name and delay (ps).
func (g *Graph) AddVertex(name string, delay int64) VertexID {
	v := VertexID(len(g.Delay))
	g.Delay = append(g.Delay, delay)
	g.Name = append(g.Name, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return v
}

// AddEdge adds edge u→v with w registers and returns its index.
func (g *Graph) AddEdge(u, v VertexID, w int32) int {
	idx := len(g.Edges)
	g.Edges = append(g.Edges, Edge{From: u, To: v, W: w})
	g.out[u] = append(g.out[u], int32(idx))
	g.in[v] = append(g.in[v], int32(idx))
	return idx
}

// NumVertices returns |V| including the host.
func (g *Graph) NumVertices() int { return len(g.Delay) }

// WithDelays returns a new graph sharing g's structure (vertices, names,
// edges, adjacency) with the given private delay vector. The ECO delta flow
// uses it to re-solve after a delay-only netlist edit without rebuilding the
// solver graph: retiming legality, bounds, and sharing structure are all
// delay-independent, only Period/feasibility change. The result is a
// distinct identity, so a probe ladder bound to g rebinds cold on it instead
// of warm-starting from delay-derived state. Callers must not mutate either
// graph's shared structure afterwards.
func (g *Graph) WithDelays(delay []int64) *Graph {
	if len(delay) != len(g.Delay) {
		panic("graph: WithDelays length mismatch")
	}
	return &Graph{Delay: delay, Name: g.Name, Edges: g.Edges, out: g.out, in: g.in}
}

// Out returns the indices of the edges leaving v.
func (g *Graph) Out(v VertexID) []int32 { return g.out[v] }

// In returns the indices of the edges entering v.
func (g *Graph) In(v VertexID) []int32 { return g.in[v] }

// RetimedWeight returns w_r(e) = w(e) + r(to) − r(from).
func (g *Graph) RetimedWeight(e Edge, r []int32) int32 {
	return e.W + r[e.To] - r[e.From]
}

// CheckLegal verifies that r is a legal retiming: every retimed edge weight
// is nonnegative and r[Host] == 0.
func (g *Graph) CheckLegal(r []int32) error {
	if len(r) != g.NumVertices() {
		return fmt.Errorf("graph: retiming has %d values for %d vertices", len(r), g.NumVertices())
	}
	if r[Host] != 0 {
		return fmt.Errorf("graph: host retiming value %d, want 0", r[Host])
	}
	for i, e := range g.Edges {
		if wr := g.RetimedWeight(e, r); wr < 0 {
			return fmt.Errorf("graph: edge %d (%s→%s) weight %d after retiming",
				i, g.Name[e.From], g.Name[e.To], wr)
		}
	}
	return nil
}

// Period returns the clock period of the graph under retiming r: the largest
// total delay of a path all of whose edges have zero retimed weight. It
// returns an error if the zero-weight subgraph has a cycle (a combinational
// loop; the retiming is broken or the graph was ill-formed).
//
// Pass r == nil for the un-retimed graph.
func (g *Graph) Period(r []int32) (int64, error) {
	delta, err := g.arrivals(r)
	if err != nil {
		return 0, err
	}
	var phi int64
	for _, d := range delta {
		if d > phi {
			phi = d
		}
	}
	return phi, nil
}

// arrivals computes Δ(v): the maximum delay of a zero-weight path ending at
// v (inclusive of d(v)), under retiming r (nil = identity).
func (g *Graph) arrivals(r []int32) ([]int64, error) {
	n := g.NumVertices()
	delta := make([]int64, n)
	indeg := make([]int32, n)
	queue := make([]VertexID, 0, n)
	// Kahn's algorithm over the zero-weight subgraph.
	for _, e := range g.Edges {
		if g.weight(e, r) == 0 {
			indeg[e.To]++
		}
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	for v := range delta {
		delta[v] = g.Delay[v]
	}
	done := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, ei := range g.out[u] {
			e := g.Edges[ei]
			if g.weight(e, r) != 0 {
				continue
			}
			if a := delta[u] + g.Delay[e.To]; a > delta[e.To] {
				delta[e.To] = a
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("graph: zero-weight cycle (combinational loop) under retiming")
	}
	return delta, nil
}

func (g *Graph) weight(e Edge, r []int32) int32 {
	if r == nil {
		return e.W
	}
	return g.RetimedWeight(e, r)
}

// TotalWeight returns the sum of edge weights (total registers, ignoring
// fanout sharing) under retiming r (nil = identity).
func (g *Graph) TotalWeight(r []int32) int64 {
	var sum int64
	for _, e := range g.Edges {
		sum += int64(g.weight(e, r))
	}
	return sum
}
