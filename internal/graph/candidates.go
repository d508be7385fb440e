package graph

import (
	"context"
	"math"
	"slices"

	"mcretiming/internal/trace"
)

// infW marks a vertex unreachable from the current source in a W/D row.
const infW int32 = math.MaxInt32

// CandidatePeriods streams the candidate clock periods — the sorted distinct
// D(u,v) values of Leiserson–Saxe's W/D matrices over reachable pairs —
// without materializing the matrices. Per source it computes one W/D row
// (sourceRow: a Dijkstra on the register weights, then a longest-delay DP
// over the tight-edge DAG) and harvests the distinct delays into one set:
// O(V) memory instead of the O(V²) matrices, same asymptotic time.
//
// minDelay is the early cutoff: path delays below it are pruned at harvest.
// The sound choice for a minimum-period caller is max_v d(v) — no feasible
// period can be smaller than the largest single-vertex delay, because the
// critical path through that vertex already costs d(v) — which typically
// drops the long tail of tiny single-gate delays. Pass 0 to keep everything;
// then the result equals the candidate list of the dense matrices exactly
// (the test-only internal/oracle package computes those independently).
//
// ctx is polled between sources.
func (g *Graph) CandidatePeriods(ctx context.Context, minDelay int64) ([]int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	sc := g.newWDScratch()
	seen := make(map[int64]struct{})
	for u := 0; u < n; u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.sourceRow(VertexID(u), sc)
		for v := 0; v < n; v++ {
			if sc.dist[v] == infW {
				continue
			}
			if d := sc.delay[v]; d >= minDelay {
				seen[d] = struct{}{}
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	slices.Sort(out)
	trace.From(ctx).Add("candidate-periods", int64(len(out)))
	return out, nil
}

// MaxDelay returns max_v d(v), the early-cutoff bound CandidatePeriods
// callers use: no feasible clock period can be below it.
func (g *Graph) MaxDelay() int64 {
	var dmax int64
	for _, d := range g.Delay {
		if d > dmax {
			dmax = d
		}
	}
	return dmax
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
// serves every source of a CandidatePeriods run.
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
// the tight-edge DAG (tightLongest), all in sc's buffers. Zero-weight cycles
// cannot be tight in a well-formed graph — every combinational cycle is
// rejected by Period — so the DP order is well-defined.
func (g *Graph) sourceRow(u VertexID, sc *wdScratch) {
	dist := sc.dist
	for i := range dist {
		dist[i] = infW
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

// tightLongest fills sc.delay[v] with the maximum path delay among paths u⇝v
// of weight sc.dist[v]. Vertices unreachable keep delay 0 (their dist is
// infW).
func (g *Graph) tightLongest(u VertexID, sc *wdScratch) {
	n := g.NumVertices()
	dist, delay, inDag, indeg := sc.dist, sc.delay, sc.inDag, sc.indeg
	for i := 0; i < n; i++ {
		delay[i] = 0
		indeg[i] = 0
		inDag[i] = dist[i] != infW
	}
	tight := func(e Edge) bool {
		return dist[e.From] != infW && dist[e.From]+e.W == dist[e.To]
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
