package graph

import (
	"fmt"
	"math"
)

// Unbounded sentinels for Bounds entries.
const (
	NoLower int32 = math.MinInt32
	NoUpper int32 = math.MaxInt32
)

// Bounds are the per-vertex class constraints of multiple-class retiming
// (paper Eq. 2): Min[v] ≤ r(v) ≤ Max[v]. Use NoLower/NoUpper for vertices
// free in one direction. A nil *Bounds means unconstrained (basic retiming).
type Bounds struct {
	Min, Max []int32
}

// NewBounds returns unconstrained bounds for n vertices.
func NewBounds(n int) *Bounds {
	b := &Bounds{Min: make([]int32, n), Max: make([]int32, n)}
	for i := 0; i < n; i++ {
		b.Min[i] = NoLower
		b.Max[i] = NoUpper
	}
	return b
}

// Clone returns an independent copy of b (nil clones to nil), so concurrent
// solves over the same graph can tighten their own bounds (§5.2) without
// racing on shared state.
func (b *Bounds) Clone() *Bounds {
	if b == nil {
		return nil
	}
	return &Bounds{
		Min: append([]int32(nil), b.Min...),
		Max: append([]int32(nil), b.Max...),
	}
}

// Check verifies that r respects the bounds.
func (b *Bounds) Check(r []int32) error {
	if b == nil {
		return nil
	}
	for v, rv := range r {
		if b.Min[v] != NoLower && rv < b.Min[v] {
			return fmt.Errorf("graph: r(%d)=%d below bound %d", v, rv, b.Min[v])
		}
		if b.Max[v] != NoUpper && rv > b.Max[v] {
			return fmt.Errorf("graph: r(%d)=%d above bound %d", v, rv, b.Max[v])
		}
	}
	return nil
}

// Constraint is the difference constraint r(X) − r(Y) ≤ B, represented as
// the edge Y→X with weight B in the constraint graph (so that shortest-path
// distances are a solution).
type Constraint struct {
	Y, X VertexID
	B    int32
}

// spfaScratch holds the working buffers of one SPFA difference-constraint
// solve, so the minperiod binary search reuses one set of allocations across
// all probes.
type spfaScratch struct {
	adj     [][]int32
	dist    []int64
	inQueue []bool
	queued  []int32 // runSPFA's queue insertions per vertex (the backstop)
	parent  []int32 // vertex that last relaxed each vertex (-1 = none)
	// parentCons records which constraint performed each vertex's last
	// relaxation (parallel to parent), so a detected negative cycle can be
	// traced back to the constraints that form it.
	parentCons []int32
	// pd holds the activation thresholds of the current constraint slice
	// (parallel to it): a period cut's PathDelay, alwaysActivePD for base
	// constraints. nil disables infeasibility certificates (the ladder-less
	// reference paths).
	pd []int64
	// certPD is the infeasibility certificate of the last failed run: the
	// negative cycle found stays intact — every period cut on it required —
	// at every period below certPD, so the binary search may advance its
	// lower bound straight to certPD. 0 means no certificate.
	certPD int64
	mark   []int8 // parentCycle walk colors
	queue  []VertexID
	out    []int32 // solution buffer returned by runSPFA (scratch-owned)
}

// alwaysActivePD is the activation threshold of constraints that apply at
// every period (circuit edges and class bounds).
const alwaysActivePD = int64(math.MaxInt64)

func newSPFAScratch(n int) *spfaScratch {
	return &spfaScratch{
		adj:        make([][]int32, n),
		dist:       make([]int64, n),
		inQueue:    make([]bool, n),
		queued:     make([]int32, n),
		parent:     make([]int32, n),
		parentCons: make([]int32, n),
		mark:       make([]int8, n),
		queue:      make([]VertexID, 0, n),
		out:        make([]int32, n),
	}
}

// parentCycle reports whether the parent-pointer graph contains a cycle and,
// if so, a vertex on it. One exists iff a strictly negative constraint cycle
// has been relaxed: every parent edge maintains dist[x] ≥ dist[parent[x]] + B
// (equality at assignment, preserved as dist values only decrease), and the
// relaxation that closes a parent cycle is strict, so summing around the
// cycle forces ΣB < 0. In particular a zero-weight cycle — feasible — can
// never close one.
func parentCycle(n int, parent []int32, mark []int8) (int32, bool) {
	for i := 0; i < n; i++ {
		mark[i] = 0
	}
	for s := 0; s < n; s++ {
		if mark[s] != 0 {
			continue
		}
		// Walk the parent chain from s, painting it gray; re-entering a gray
		// vertex means the chain bit its own tail — and the re-entered vertex
		// is on the cycle (the chain from it leads back to it).
		v := int32(s)
		for v != -1 && mark[v] == 0 {
			mark[v] = 1
			v = parent[v]
		}
		if v != -1 && mark[v] == 1 {
			return v, true
		}
		// Repaint this walk's gray prefix black (chain ended at -1 or black).
		for v = int32(s); v != -1 && mark[v] == 1; v = parent[v] {
			mark[v] = 2
		}
	}
	return -1, false
}

// cycleCertPD walks the parent cycle through v and returns the minimum
// activation threshold among the constraints forming it: the probe's period
// is certified infeasible for every period BELOW that value, because all of
// the cycle's period cuts remain required there and the cycle's weight does
// not depend on the period. Returns 0 (no certificate) when threshold
// tracking is off, when provenance is incomplete, or when the cycle uses no
// finite-threshold constraint.
func (sc *spfaScratch) cycleCertPD(v int32) int64 {
	if sc.pd == nil {
		return 0
	}
	minPD := alwaysActivePD
	x := v
	for {
		ci := sc.parentCons[x]
		if ci < 0 || int(ci) >= len(sc.pd) {
			return 0
		}
		if p := sc.pd[ci]; p < minPD {
			minPD = p
		}
		x = sc.parent[x]
		if x == v {
			break
		}
	}
	if minPD == alwaysActivePD {
		// An all-base negative cycle would mean "infeasible at every period";
		// it cannot coexist with the feasible witness the search already
		// holds, so treat it as "no certificate" rather than trusting it.
		return 0
	}
	return minPD
}

// solveDifferenceBuf solves the difference constraints r(X) − r(Y) ≤ B over
// n variables by SPFA from a virtual source joined to every variable with
// weight 0, inside sc's buffers. It returns a solution — sc.out, see runSPFA —
// or ok=false if the system is infeasible (a negative cycle). Every call is a
// cold start — all n vertices seeded, the whole constraint graph
// re-propagated — and bumps the ColdStartCount regression hook.
func solveDifferenceBuf(n int, cons []Constraint, sc *spfaScratch) ([]int32, bool) {
	spfaColdStarts.Add(1)
	adj := sc.adj // constraint indices by source y
	for i := 0; i < n; i++ {
		adj[i] = adj[i][:0]
	}
	for i, c := range cons {
		adj[c.Y] = append(adj[c.Y], int32(i))
	}
	dist := sc.dist // virtual source: all start at 0
	inQueue := sc.inQueue
	parent := sc.parent
	parentCons := sc.parentCons
	for i := 0; i < n; i++ {
		dist[i] = 0
		inQueue[i] = true
		parent[i] = -1
		parentCons[i] = -1
	}
	queue := sc.queue[:0]
	for v := 0; v < n; v++ {
		queue = append(queue, VertexID(v))
	}
	return runSPFA(n, cons, sc, queue)
}

// resolveDifferenceBuf continues a quiescent solveDifferenceBuf relaxation in
// sc after cons grew: sc.dist already satisfies cons[:from] (it is the
// canonical shortest-path labeling of that prefix), and only cons[from:] are
// new. The previous labels are path weights in the old constraint graph — a
// subgraph of the new one — so they upper-bound the new shortest distances
// and are each achieved by a still-existing path; FIFO relaxation seeded at
// the new constraints' sources therefore converges to exactly the labeling a
// cold solve over all of cons would produce, while only propagating the new
// constraints' effects. This is what makes the cutting-plane loop cheap on
// deep graphs: rounds after the first cost incremental work, not a full
// diameter-deep re-propagation.
func resolveDifferenceBuf(n int, cons []Constraint, from int, sc *spfaScratch) ([]int32, bool) {
	adj := sc.adj
	for i := from; i < len(cons); i++ {
		adj[cons[i].Y] = append(adj[cons[i].Y], int32(i))
	}
	// sc.parent deliberately persists from the previous round: its invariant
	// (dist[x] ≥ dist[parent[x]] + B) survives monotone dist decreases, so
	// the parentCycle detector stays sound across incremental rounds.
	inQueue := sc.inQueue
	for i := 0; i < n; i++ {
		inQueue[i] = false
	}
	queue := sc.queue[:0]
	for i := from; i < len(cons); i++ {
		if y := cons[i].Y; !inQueue[y] {
			queue = append(queue, y)
			inQueue[y] = true
		}
	}
	return runSPFA(n, cons, sc, queue)
}

// runSPFA drains queue with FIFO Bellman-Ford relaxation over sc's prepared
// adj/dist/inQueue/parent buffers. The returned solution slice is sc.out —
// scratch-owned and overwritten by the next run — so callers that let it
// escape must copy it first.
//
// Infeasibility (a negative constraint cycle) is detected two ways. The fast
// path is the parentCycle walk, run every n relaxations: it costs O(n),
// amortizes to a constant factor, and fires within one check interval of the
// cycle starting to spin — which matters because an infeasible minperiod
// probe would otherwise pay ~n laps of the cycle before the per-vertex
// counter (the backstop, kept for safety) reaches its n+1 bound. The counter
// bound is sound from any labeling whose entries are valid path weights:
// absent a negative cycle such labels stabilize within n−1 FIFO passes and a
// vertex is queued at most once per pass. It counts queue insertions, not
// label improvements: parallel constraints can improve a vertex several
// times within one pass.
func runSPFA(n int, cons []Constraint, sc *spfaScratch, queue []VertexID) ([]int32, bool) {
	adj, dist, inQueue, queued, parent := sc.adj, sc.dist, sc.inQueue, sc.queued, sc.parent
	parentCons := sc.parentCons
	for i := 0; i < n; i++ {
		queued[i] = 0
	}
	// FIFO by head index, compacted in place once the consumed prefix
	// reaches half the slice: the inQueue guard bounds the live window at n
	// entries, so the backing stabilizes at ~2n and appends stop
	// reallocating. The grown backing is handed back to the scratch on every
	// exit so later probes reuse it instead of re-growing from n each time.
	defer func() { sc.queue = queue[:0] }()
	head := 0
	steps, nextCheck := 0, n
	for head < len(queue) {
		if head >= 64 && head*2 >= len(queue) {
			live := copy(queue, queue[head:])
			queue = queue[:live]
			head = 0
		}
		y := queue[head]
		head++
		inQueue[y] = false
		for _, ci := range adj[y] {
			c := cons[ci]
			if nd := dist[y] + int64(c.B); nd < dist[c.X] {
				dist[c.X] = nd
				parent[c.X] = int32(y)
				parentCons[c.X] = ci
				steps++
				if steps >= nextCheck {
					nextCheck += n
					if v, bad := parentCycle(n, parent, sc.mark); bad {
						sc.certPD = sc.cycleCertPD(v)
						return nil, false // negative cycle
					}
				}
				if !inQueue[c.X] {
					queued[c.X]++
					if queued[c.X] > int32(n)+1 {
						sc.certPD = 0
						return nil, false // negative cycle (backstop)
					}
					queue = append(queue, c.X)
					inQueue[c.X] = true
				}
			}
		}
	}
	out := sc.out
	for i, d := range dist {
		out[i] = int32(d)
	}
	return out, true
}
