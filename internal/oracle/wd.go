// Package oracle holds the reference retiming engines the production solvers
// are checked against: Leiserson–Saxe's dense W/D matrices, their FEAS
// feasibility algorithm, the dense-constraint feasibility test and
// minimum-period search of paper §5.1, and the dense minimum-area program.
// They are references, most of them O(V²) in memory, so none of them ships:
// only _test.go files import this package, and a CI step fails if a binary
// or the root package links it.
//
// Every kernel here is the package's own. It reads a graph only through
// graph's exported fields and methods and calls none of its solvers, so a
// test comparing a production engine against an oracle cannot pass because
// both share one buggy kernel.
package oracle

import (
	"container/heap"
	"context"
	"math"
	"slices"

	"mcretiming/internal/graph"
)

// InfW marks an unreachable pair in the W matrix.
const InfW int32 = math.MaxInt32

// WD holds the Leiserson–Saxe path matrices for a graph with n vertices:
// W(u,v) is the minimum number of registers on any path u⇝v and D(u,v) the
// maximum total vertex delay among the minimum-weight paths (both endpoints
// included). The trivial path gives W(u,u)=0, D(u,u)=d(u).
type WD struct {
	N int
	W []int32 // flat n×n, InfW when unreachable
	D []int64 // valid only where W < InfW
}

// At returns W(u,v) and D(u,v).
func (m *WD) At(u, v graph.VertexID) (int32, int64) {
	i := int(u)*m.N + int(v)
	return m.W[i], m.D[i]
}

// Candidates returns the sorted distinct D values over reachable pairs: the
// candidate clock periods of the minimum-period binary search.
func (m *WD) Candidates() []int64 {
	var out []int64
	for i, w := range m.W {
		if w != InfW {
			out = append(out, m.D[i])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ComputeWD computes the W and D matrices row by row: a Dijkstra on the
// register weights from each source, then D by memoized recursion over the
// tight edges (those on some minimum-weight path), pulling from each
// vertex's fanin. Zero-weight cycles cannot be tight in a well-formed graph,
// so the recursion terminates. ctx is polled between rows.
func ComputeWD(ctx context.Context, g *graph.Graph) (*WD, error) {
	n := g.NumVertices()
	m := &WD{N: n, W: make([]int32, n*n), D: make([]int64, n*n)}
	for u := 0; u < n; u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := u * n
		dist := m.W[row : row+n]
		shortestWeights(g, graph.VertexID(u), dist)
		tightDelays(g, graph.VertexID(u), dist, m.D[row:row+n])
	}
	return m, nil
}

// distHeap is a min-heap of (vertex, distance) pairs for container/heap.
type distHeap []distItem

type distItem struct {
	v graph.VertexID
	d int32
}

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// shortestWeights fills dist with the minimum register count of a path from
// u to every vertex (InfW when unreachable).
func shortestWeights(g *graph.Graph, u graph.VertexID, dist []int32) {
	for i := range dist {
		dist[i] = InfW
	}
	dist[u] = 0
	h := &distHeap{{u, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d != dist[it.v] {
			continue // stale entry
		}
		for _, ei := range g.Out(it.v) {
			e := g.Edges[ei]
			if nd := it.d + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(h, distItem{e.To, nd})
			}
		}
	}
}

// tightDelays fills delay[v] with the maximum delay of a minimum-weight path
// u⇝v: d(v) plus the largest such delay over v's tight fanin edges, with
// delay[u] = d(u). Unreachable vertices get 0.
func tightDelays(g *graph.Graph, u graph.VertexID, dist []int32, delay []int64) {
	seen := make([]bool, len(dist))
	var visit func(v graph.VertexID) int64
	visit = func(v graph.VertexID) int64 {
		if seen[v] {
			return delay[v]
		}
		best := int64(0)
		if v != u {
			for _, ei := range g.In(v) {
				e := g.Edges[ei]
				if dist[e.From] != InfW && dist[e.From]+e.W == dist[v] {
					best = max(best, visit(e.From))
				}
			}
		}
		delay[v] = g.Delay[v] + best
		seen[v] = true
		return delay[v]
	}
	for v := range dist {
		if dist[v] == InfW {
			delay[v] = 0
		} else {
			visit(graph.VertexID(v))
		}
	}
}
