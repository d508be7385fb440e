package graph

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"mcretiming/internal/failpoint"
)

// InfW marks an unreachable pair in the W matrix.
const InfW int32 = math.MaxInt32

// wdComputes counts dense W/D materializations process-wide. The sparse
// engine's contract is that no code path allocates the O(V²) matrices for
// large graphs; the scale-smoke test samples this counter around a solve to
// enforce it (see WDComputeCount).
var wdComputes atomic.Int64

// WDComputeCount returns the number of dense W/D matrix computations
// (ComputeWD calls) since process start. A test hook: the sparse-engine
// guard asserts the delta over a solve is zero.
func WDComputeCount() int64 { return wdComputes.Load() }

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
func (m *WD) At(u, v VertexID) (int32, int64) {
	i := int(u)*m.N + int(v)
	return m.W[i], m.D[i]
}

type pqItem struct {
	v    VertexID
	dist int32
}

// pq is a binary min-heap of pqItems ordered by dist. It is a plain slice
// with open-coded sift-up/sift-down: unlike container/heap there is no
// interface boxing, so pushes during edge relaxation reuse the backing array
// instead of allocating a fresh any per item.
type pq []pqItem

func (p *pq) push(it pqItem) {
	h := append(*p, it)
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*p = h
}

func (p *pq) pop() pqItem {
	h := *p
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h[l].dist < h[small].dist {
			small = l
		}
		if r < last && h[r].dist < h[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*p = h
	return top
}

// wdScratch holds the reusable buffers for per-source W/D rows: one instance
// serves every source of a ComputeWD or CandidatePeriods run.
type wdScratch struct {
	dist  []int32
	delay []int64
	inDag []bool
	indeg []int32
	queue []VertexID
	heap  pq
}

func (g *Graph) newWDScratch() *wdScratch {
	n := g.NumVertices()
	return &wdScratch{
		dist:  make([]int32, n),
		delay: make([]int64, n),
		inDag: make([]bool, n),
		indeg: make([]int32, n),
		queue: make([]VertexID, 0, n),
		heap:  make(pq, 0, n),
	}
}

// sourceRow fills sc.dist and sc.delay with the W/D row of source u: a
// Dijkstra on the register weights from u followed by a longest-delay DP over
// the tight-edge DAG, all in sc's buffers. This is the shared per-source
// kernel of the dense matrices (ComputeWD) and the streamed candidate-period
// generator (CandidatePeriods), which never materializes the matrices.
func (g *Graph) sourceRow(u VertexID, sc *wdScratch) {
	dist := sc.dist
	for i := range dist {
		dist[i] = InfW
	}
	dist[u] = 0
	h := sc.heap[:0]
	h.push(pqItem{u, 0})
	for len(h) > 0 {
		it := h.pop()
		if it.dist > dist[it.v] {
			continue
		}
		for _, ei := range g.out[it.v] {
			e := g.Edges[ei]
			if nd := it.dist + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				h.push(pqItem{e.To, nd})
			}
		}
	}
	sc.heap = h

	g.tightLongest(u, sc)
}

// wdRow fills row u of m from the per-source kernel.
func (g *Graph) wdRow(u VertexID, m *WD, sc *wdScratch) {
	g.sourceRow(u, sc)
	n := m.N
	row := int(u) * n
	copy(m.W[row:row+n], sc.dist)
	copy(m.D[row:row+n], sc.delay)
}

// ComputeWD computes the W and D matrices by, per source, a Dijkstra on the
// register weights followed by a longest-delay DP over the tight-edge DAG
// (the subgraph of edges on some minimum-weight path). Zero-weight cycles
// cannot be tight in a well-formed graph — every combinational cycle is
// rejected by Period — so the DP order is well-defined.
//
// The context is polled between rows; on cancellation the partial matrices
// are discarded and the context's error returned.
func (g *Graph) ComputeWD(ctx context.Context) (*WD, error) {
	// Chaos hook for the heaviest precomputation of the flow.
	if err := failpoint.Inject(ctx, "graph.wd"); err != nil {
		return nil, err
	}
	wdComputes.Add(1)
	n := g.NumVertices()
	m := &WD{N: n, W: make([]int32, n*n), D: make([]int64, n*n)}
	sc := g.newWDScratch()
	for u := 0; u < n; u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.wdRow(VertexID(u), m, sc)
	}
	return m, nil
}

// tightLongest fills sc.delay[v] with the maximum path delay among paths u⇝v
// of weight sc.dist[v]. Vertices unreachable keep delay 0 (their W entry is
// InfW).
func (g *Graph) tightLongest(u VertexID, sc *wdScratch) {
	n := g.NumVertices()
	dist, delay, inDag, indeg := sc.dist, sc.delay, sc.inDag, sc.indeg
	for i := 0; i < n; i++ {
		delay[i] = 0
		indeg[i] = 0
		inDag[i] = dist[i] != InfW
	}
	tight := func(e Edge) bool {
		return dist[e.From] != InfW && dist[e.From]+e.W == dist[e.To]
	}
	for _, e := range g.Edges {
		if tight(e) {
			indeg[e.To]++
		}
	}
	queue := sc.queue[:0]
	for v := 0; v < n; v++ {
		if inDag[v] && indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	delay[u] = g.Delay[u]
	for len(queue) > 0 {
		x := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range g.out[x] {
			e := g.Edges[ei]
			if !tight(e) {
				continue
			}
			if a := delay[x] + g.Delay[e.To]; a > delay[e.To] {
				delay[e.To] = a
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	sc.queue = queue
}

// Candidates returns the sorted distinct D values — the candidate clock
// periods for the minimum-period binary search.
func (m *WD) Candidates() []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for i, w := range m.W {
		if w == InfW {
			continue
		}
		d := m.D[i]
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return out
}
