// Package mcf implements a minimum-cost flow solver used as the LP engine
// for minimum-area retiming.
//
// The minarea ILP of Leiserson–Saxe (§8 of "Retiming Synchronous Circuitry",
// restated in the paper's §5.1) is a linear program over difference
// constraints; its dual is a transshipment problem. Package retime builds
// one node per retiming variable, one arc per difference constraint
// r(x) − r(y) ≤ b (arc y→x with cost b and infinite capacity), gives each
// node the supply c(v), and reads the optimal retiming back off the
// shortest-path potentials of the optimal residual network.
//
// The solver is the primal-dual algorithm: one initial SPFA absorbs negative
// arc costs into node potentials, then each phase runs one early-terminating
// multi-source Dijkstra from every excess node over nonnegative reduced
// costs, and a Dinic blocking flow pushes every augmenting path the
// resulting zero-reduced-cost subgraph holds. Negative arc costs are fine;
// negative cycles (impossible for a bounded retiming LP) are rejected. The
// successive-shortest-paths solve it replaced (one Dijkstra per augmenting
// path) survives as the test oracle.
package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// Inf is the capacity used for uncapacitated arcs.
const Inf int64 = math.MaxInt64 / 4

type arc struct {
	to   int32
	rev  int32 // index of the reverse arc in adj[to]
	cap  int64 // residual capacity
	cost int64
}

// Solver is a min-cost flow instance. Nodes are 0..n-1.
type Solver struct {
	n      int
	adj    [][]arc
	supply []int64
	// arcRef locates user arcs: (node, index) of the forward arc.
	arcRef [][2]int32

	// MaxAugmentations caps the number of augmenting paths a single Solve
	// may push — and the number of repair Dijkstras a single Reoptimize may
	// perform; 0 means unlimited. On exhaustion the call returns an error
	// wrapping rterr.ErrBudgetExceeded.
	MaxAugmentations int

	// pi holds the node potentials of the last successful Solve (every
	// residual arc has nonnegative reduced cost under them); nextNew is the
	// arcRef watermark of that solve. Together they let Reoptimize absorb
	// later-added arcs incrementally. A failed Solve, Resume or Reoptimize
	// clears pi: the flow it left behind is not optimal.
	pi      []int64
	nextNew int
	// excess is the net imbalance the flow leaves at each node: all zero
	// after a successful solve, nonzero where RemoveArc returned an arc's
	// flow to its ends. nil reads as all zero.
	excess []int64

	// Scratch reused by every phase, repair and potential read.
	work     flowState
	prevNode []int32
	prevArc  []int32
	saved    []int64 // Reoptimize: capacities of the arcs hidden for repair
	inQ      []bool  // residualDistances
	queued   []int32
	spfaQ    []int32
}

// New returns a solver over n nodes.
func New(n int) *Solver {
	return &Solver{n: n, adj: make([][]arc, n), supply: make([]int64, n)}
}

// NewSized returns a solver over len(deg) nodes whose arc lists are carved
// out of one backing array: node v has room for deg[v] arc ends (an arc u→v
// is one end at u and one at v), and the handle table for arcs handles,
// before AddArc grows either. A node that outgrows its room moves its list
// to a fresh array of its own; nothing else changes.
func NewSized(deg []int32, arcs int) *Solver {
	s := New(len(deg))
	total := 0
	for _, d := range deg {
		total += int(d)
	}
	all := make([]arc, total)
	off := 0
	for v, d := range deg {
		s.adj[v] = all[off : off : off+int(d)]
		off += int(d)
	}
	s.arcRef = make([][2]int32, 0, arcs)
	return s
}

// AddArc adds a directed arc u→v with the given capacity and per-unit cost,
// returning its handle for Flow.
func (s *Solver) AddArc(u, v int, capacity, cost int64) int {
	if u == v {
		// Self-loops carry no flow in an optimal solution with cost ≥ 0 and
		// would confuse the reverse-arc bookkeeping; represent as a handle
		// with zero flow.
		s.arcRef = append(s.arcRef, [2]int32{-1, -1})
		return len(s.arcRef) - 1
	}
	fu := int32(len(s.adj[u]))
	fv := int32(len(s.adj[v]))
	s.adj[u] = append(s.adj[u], arc{to: int32(v), rev: fv, cap: capacity, cost: cost})
	s.adj[v] = append(s.adj[v], arc{to: int32(u), rev: fu, cap: 0, cost: -cost})
	s.arcRef = append(s.arcRef, [2]int32{int32(u), fu})
	return len(s.arcRef) - 1
}

// AddSupply adds b to the net supply of node v (positive = source).
func (s *Solver) AddSupply(v int, b int64) { s.supply[v] += b }

// ErrInfeasible is returned when the supplies cannot be routed.
var ErrInfeasible = errors.New("mcf: infeasible (supply cannot reach demand)")

// Solve routes all supplies to demands at minimum cost and returns the cost.
// Supplies must balance to zero.
//
// Algorithm: primal-dual with node potentials (Ahuja–Magnanti–Orlin,
// "Network Flows", ch. 9). One initial Bellman–Ford (SPFA) absorbs negative
// arc costs into the potentials. Each phase then runs one multi-source
// Dijkstra over nonnegative reduced costs from every excess node, and a
// blocking flow saturates the zero-reduced-cost subgraph it leaves behind.
func (s *Solver) Solve() (int64, error) {
	return s.SolveCtx(context.Background())
}

// SolveCtx is Solve with cooperative cancellation: ctx is polled before
// every phase and every augmenting path, and its error returned. Each phase
// bumps the "flow-phases" counter and each augmenting path the
// "flow-augmentations" counter of any trace sink carried by ctx;
// MaxAugmentations counts augmenting paths too.
//
// A phase settles nodes outward from all excess nodes at once and stops at
// the first deficit node, at distance D. Folding min(dist, D) into the
// potentials keeps every reduced cost nonnegative and makes every shortest
// path to that deficit tight. The phase then repeats Dinic rounds on the
// admissible subgraph (residual arcs with zero reduced cost): BFS levels
// from the excess nodes, then augmenting paths from each excess node along
// increasing levels to any node still in deficit, with current-arc pointers
// so that each round scans every arc at most once beyond the paths it
// pushes. A push only creates zero-reduced-cost reverse arcs, so the
// potentials stay valid for the next phase and for Reoptimize.
func (s *Solver) SolveCtx(ctx context.Context) (int64, error) {
	var total int64
	for _, b := range s.supply {
		total += b
	}
	if total != 0 {
		return 0, fmt.Errorf("mcf: supplies sum to %d, want 0", total)
	}
	pi, ok := s.residualDistances()
	if !ok {
		s.pi = nil
		return 0, errors.New("mcf: negative cycle in residual network")
	}
	s.excess = append(s.excess[:0], s.supply...)
	return s.phases(ctx, pi)
}

// Resume re-routes the imbalance RemoveArc left behind, running the phases
// of SolveCtx from the maintained potentials instead of a fresh
// Bellman–Ford: removing arcs only removes residual arcs, so every reduced
// cost stays nonnegative. The flow is then optimal for the remaining arcs, as
// if they had been solved cold. Call only after a successful solve, with no
// arcs added since (those go through Reoptimize afterwards). Counters,
// cancellation and MaxAugmentations behave as in SolveCtx.
func (s *Solver) Resume(ctx context.Context) error {
	if s.pi == nil {
		return errors.New("mcf: Resume before a successful Solve")
	}
	if s.nextNew != len(s.arcRef) {
		return errors.New("mcf: Resume with arcs pending Reoptimize")
	}
	if s.excess == nil {
		return nil
	}
	_, err := s.phases(ctx, s.pi)
	return err
}

// RemoveArc deletes the arc with the given handle. The flow it carried
// returns to its ends as imbalance — excess at the tail, deficit at the
// head — for Resume to re-route; its handle reads zero flow from now on.
func (s *Solver) RemoveArc(handle int) {
	ref := s.arcRef[handle]
	if ref[0] < 0 {
		return
	}
	a := &s.adj[ref[0]][ref[1]]
	back := &s.adj[a.to][a.rev]
	if f := back.cap; f != 0 {
		if s.excess == nil {
			s.excess = make([]int64, s.n)
		}
		s.excess[ref[0]] += f
		s.excess[a.to] -= f
	}
	a.cap, back.cap = 0, 0
	s.arcRef[handle] = [2]int32{-1, -1}
}

// Potentials returns the node potentials of the last successful solve,
// under which every residual arc has nonnegative reduced cost: for the
// retiming dual, a feasible and optimal (not canonical) solution. The slice
// is the solver's own and changes with the next solve.
func (s *Solver) Potentials() []int64 { return s.pi }

// phases routes s.excess to zero from potentials pi (valid for every
// residual arc), one Dijkstra and one blocking flow per phase, and returns
// the cost of the flow it pushed. On success pi becomes the solver's
// potentials; on failure the solver has none.
func (s *Solver) phases(ctx context.Context, pi []int64) (int64, error) {
	sink := trace.From(ctx)
	f := &s.work
	f.s, f.excess, f.pi = s, s.excess, pi
	if len(f.dist) != s.n {
		f.dist = make([]int64, s.n)
		f.level = make([]int32, s.n)
		f.cur = make([]int32, s.n)
	}
	s.pi = nil
	var cost int64
	augmentations := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if !f.collectSources() {
			s.pi = f.pi
			s.nextNew = len(s.arcRef)
			return cost, nil
		}
		sink.Add("flow-phases", 1)
		if !f.reprice() {
			return 0, ErrInfeasible
		}
		for f.levels() {
			for _, src := range f.sources {
				for f.excess[src] > 0 {
					t := f.advance(src)
					if t < 0 {
						break
					}
					if err := ctx.Err(); err != nil {
						return 0, err
					}
					augmentations++
					if s.MaxAugmentations > 0 && augmentations > s.MaxAugmentations {
						return 0, fmt.Errorf("mcf: augmentation budget %d exhausted: %w", s.MaxAugmentations, rterr.ErrBudgetExceeded)
					}
					sink.Add("flow-augmentations", 1)
					cost += f.augment(src, t)
				}
			}
			f.collectSources()
		}
	}
}

// flowState is the working state of SolveCtx and Resume: node excesses and
// potentials, plus the scratch arrays their phases reuse.
type flowState struct {
	s      *Solver
	excess []int64
	pi     []int64
	dist   []int64 // phase Dijkstra labels
	level  []int32 // BFS level in the admissible subgraph; -1 = unreached or dead
	cur    []int32 // current-arc pointer per node
	// sources lists the nodes with positive excess in index order; queue is
	// the BFS queue and path the nodes of the path advance is extending.
	sources, queue, path []int32
	heap                 pqMCF
}

// collectSources refills f.sources and reports whether it is nonempty.
func (f *flowState) collectSources() bool {
	f.sources = f.sources[:0]
	for v, e := range f.excess {
		if e > 0 {
			f.sources = append(f.sources, int32(v))
		}
	}
	return len(f.sources) > 0
}

// reprice runs one Dijkstra over reduced costs from every source at once,
// stopping as soon as the closest deficit node is settled at distance D, and
// folds min(dist, D) into the potentials. It reports false if no deficit is
// reachable. Unsettled labels are all ≥ D when it stops, so capping them at
// D keeps every residual reduced cost nonnegative, while every settled node
// on a shortest path to the deficit gets its exact distance, making that
// path tight.
func (f *flowState) reprice() bool {
	s, dist := f.s, f.dist
	for i := range dist {
		dist[i] = math.MaxInt64
	}
	f.heap = f.heap[:0]
	for _, v := range f.sources {
		dist[v] = 0
		f.heap.push(pqItem{v, 0})
	}
	for len(f.heap) > 0 {
		it := f.heap[0]
		f.heap.pop()
		if it.dist > dist[it.v] {
			continue
		}
		if f.excess[it.v] < 0 {
			for v, d := range dist {
				f.pi[v] += min(d, it.dist)
			}
			return true
		}
		for ai := range s.adj[it.v] {
			a := &s.adj[it.v][ai]
			if a.cap <= 0 {
				continue
			}
			rc := a.cost + f.pi[it.v] - f.pi[a.to]
			if nd := it.dist + rc; nd < dist[a.to] {
				dist[a.to] = nd
				f.heap.push(pqItem{a.to, nd})
			}
		}
	}
	return false
}

// admissible reports whether arc a out of u lies in the level graph: it has
// residual capacity and zero reduced cost, and climbs exactly one BFS level.
func (f *flowState) admissible(u int32, a *arc) bool {
	return a.cap > 0 && f.level[a.to] == f.level[u]+1 && a.cost+f.pi[u]-f.pi[a.to] == 0
}

// levels assigns BFS levels over residual zero-reduced-cost arcs from every
// source, resets the current-arc pointers, and reports whether any deficit
// node was reached.
func (f *flowState) levels() bool {
	s := f.s
	for v := range f.level {
		f.level[v] = -1
		f.cur[v] = 0
	}
	f.queue = f.queue[:0]
	for _, v := range f.sources {
		f.level[v] = 0
		f.queue = append(f.queue, v)
	}
	reached := false
	for qi := 0; qi < len(f.queue); qi++ {
		u := f.queue[qi]
		if f.excess[u] < 0 {
			reached = true
		}
		for ai := range s.adj[u] {
			a := &s.adj[u][ai]
			if a.cap > 0 && f.level[a.to] < 0 && a.cost+f.pi[u]-f.pi[a.to] == 0 {
				f.level[a.to] = f.level[u] + 1
				f.queue = append(f.queue, a.to)
			}
		}
	}
	return reached
}

// advance extends a path from src along admissible arcs until it reaches a
// node in deficit, which it returns with the path's other nodes in f.path
// (the arc taken out of each is its current arc). A node with no admissible
// way on is retired from the level graph and the path backs up past it; if
// src itself retires, advance returns -1. It is iterative because a path can
// run through a large share of the nodes.
func (f *flowState) advance(src int32) int32 {
	s := f.s
	f.path = f.path[:0]
	u := src
	for f.excess[u] >= 0 {
		adj := s.adj[u]
		for int(f.cur[u]) < len(adj) && !f.admissible(u, &adj[f.cur[u]]) {
			f.cur[u]++
		}
		if int(f.cur[u]) < len(adj) {
			f.path = append(f.path, u)
			u = adj[f.cur[u]].to
			continue
		}
		f.level[u] = -1
		if len(f.path) == 0 {
			return -1
		}
		u = f.path[len(f.path)-1]
		f.path = f.path[:len(f.path)-1]
		f.cur[u]++
	}
	return u
}

// augment pushes the bottleneck of src's excess, t's deficit and the
// residual capacities along f.path from src to t, and returns its cost.
func (f *flowState) augment(src, t int32) int64 {
	s := f.s
	amt := min(f.excess[src], -f.excess[t])
	for _, u := range f.path {
		amt = min(amt, s.adj[u][f.cur[u]].cap)
	}
	var cost int64
	for _, u := range f.path {
		a := &s.adj[u][f.cur[u]]
		a.cap -= amt
		s.adj[a.to][a.rev].cap += amt
		cost += amt * a.cost
	}
	f.excess[src] -= amt
	f.excess[t] += amt
	return cost
}

// Reoptimize re-establishes optimality after arcs were added to an already
// solved instance, without re-routing any supply. The previous optimal flow
// stays feasible when the arc set only grows (new arcs simply carry zero
// flow), but a new arc with negative reduced cost opens negative-cost cycles
// through the residual network — exactly when the constraint it represents
// cuts off the old dual optimum. Reoptimize repairs each such arc in turn:
// an early-terminating Dijkstra from the arc's head back to its tail (every
// other residual arc has nonnegative reduced cost under the maintained
// potentials) finds the cheapest cycle through the arc; while that cycle is
// strictly negative the bottleneck is pushed around it, and once it is not,
// the Dijkstra distances are folded into the potentials — capped so that the
// repaired arc's reduced cost comes out nonnegative — restoring the solve
// invariant for the next arc.
//
// This is the incremental counterpart of a fresh Solve: far cheaper when few
// arcs were added, identical in outcome for the potentials read back by
// ResidualPotentials. With uncapacitated arcs the optimal residual network
// keeps every forward arc, and by complementary slackness the tight-arc
// system {feasible, tight on supp(f)} describes the same optimal face for
// every optimal flow f — so the canonical shortest-path labeling does not
// depend on which optimal flow the solver landed on.
//
// Call only after a successful Solve. ctx is polled per repair step;
// MaxAugmentations (if set) caps the repair Dijkstras, returning an error
// wrapping rterr.ErrBudgetExceeded on exhaustion so the caller can fall back
// to a cold re-solve. Each cycle cancellation bumps the "flow-cancellations"
// counter of any trace sink carried by ctx.
func (s *Solver) Reoptimize(ctx context.Context) error {
	if s.pi == nil {
		return errors.New("mcf: Reoptimize before a successful Solve")
	}
	sink := trace.From(ctx)
	if len(s.prevNode) != s.n {
		s.prevNode = make([]int32, s.n)
		s.prevArc = make([]int32, s.n)
	}
	if len(s.work.dist) != s.n {
		s.work.dist = make([]int64, s.n)
	}
	dist, prevNode, prevArc := s.work.dist, s.prevNode, s.prevArc
	// Arcs are absorbed one at a time: the repair Dijkstra requires every
	// visible residual arc to respect the potentials, so the still-pending
	// arcs (zero flow by construction) are hidden behind cap 0 until their
	// turn comes.
	start := s.nextNew
	s.saved = slices.Grow(s.saved[:0], len(s.arcRef)-start)[:len(s.arcRef)-start]
	saved := s.saved
	for i := start; i < len(s.arcRef); i++ {
		ref := s.arcRef[i]
		if ref[0] < 0 {
			continue
		}
		a := &s.adj[ref[0]][ref[1]]
		saved[i-start] = a.cap
		a.cap = 0
	}
	unhide := func(from int) {
		for i := from; i < len(s.arcRef); i++ {
			if ref := s.arcRef[i]; ref[0] >= 0 {
				s.adj[ref[0]][ref[1]].cap = saved[i-start]
			}
		}
	}
	work := 0
	for ; s.nextNew < len(s.arcRef); s.nextNew++ {
		ref := s.arcRef[s.nextNew]
		if ref[0] < 0 {
			continue // self-loop handle, carries no flow
		}
		// The arc under repair stays hidden from its own repair Dijkstras:
		// its forward residual is the one negative-reduced-cost arc in the
		// network, so it must not be traversable. Flow pushed onto it is
		// tracked through its reverse arc and the forward capacity is
		// restored (minus that flow) once the arc satisfies the potentials.
		a := &s.adj[ref[0]][ref[1]]
		tail, head := int(ref[0]), int(a.to)
		restore := func() {
			a.cap = saved[s.nextNew-start] - s.adj[head][a.rev].cap
			unhide(s.nextNew + 1)
			s.pi = nil
		}
		for {
			if err := ctx.Err(); err != nil {
				restore()
				return err
			}
			rc := a.cost + s.pi[tail] - s.pi[head]
			if rc >= 0 {
				a.cap = saved[s.nextNew-start] - s.adj[head][a.rev].cap
				break
			}
			work++
			if s.MaxAugmentations > 0 && work > s.MaxAugmentations {
				restore()
				return fmt.Errorf("mcf: reoptimize budget %d exhausted: %w", s.MaxAugmentations, rterr.ErrBudgetExceeded)
			}
			settled := s.repairDijkstra(head, tail, -rc, dist, prevNode, prevArc)
			// Fold the distances into the potentials first — it makes every
			// settled path tight (so the reverse arcs a push creates cost
			// exactly zero, keeping the Dijkstra invariant), and with the
			// −rc cap it lifts the repaired arc itself to reduced cost zero
			// when no strictly negative cycle remains.
			foldCap := -rc
			if settled {
				foldCap = dist[tail] // < −rc: a strictly negative cycle
			}
			for v := 0; v < s.n; v++ {
				if dist[v] < foldCap {
					s.pi[v] += dist[v]
				} else {
					s.pi[v] += foldCap
				}
			}
			if !settled {
				continue // next rc recomputation sees ≥ 0 and finishes
			}
			// The cycle new-arc + shortest head→tail residual path is
			// strictly negative: push its bottleneck around and retry.
			sink.Add("flow-cancellations", 1)
			amt := Inf
			for v := tail; v != head; v = int(prevNode[v]) {
				if c := s.adj[prevNode[v]][prevArc[v]].cap; c < amt {
					amt = c
				}
			}
			if amt >= Inf {
				restore()
				return errors.New("mcf: negative cycle of uncapacitated arcs (unbounded)")
			}
			for v := tail; v != head; v = int(prevNode[v]) {
				pa := &s.adj[prevNode[v]][prevArc[v]]
				pa.cap -= amt
				s.adj[v][pa.rev].cap += amt
			}
			s.adj[head][a.rev].cap += amt // forward stays hidden at cap 0
		}
	}
	return nil
}

// repairDijkstra computes shortest residual distances from src under the
// reduced costs, stopping as soon as dst is settled (reporting true), the
// reachable set is exhausted, or every remaining node is at distance ≥ limit
// (both false). The limit stop is what keeps repairs local: the caller only
// needs to know whether dist[dst] < limit, and Dijkstra settles in
// nondecreasing order, so once the heap minimum reaches limit the answer is
// no — and every unsettled label is then ≥ limit, which is exactly the
// condition the caller's potential fold (capped at a value ≤ limit) needs to
// keep all reduced costs nonnegative.
func (s *Solver) repairDijkstra(src, dst int, limit int64, dist []int64, prevNode, prevArc []int32) bool {
	for i := range dist {
		dist[i] = math.MaxInt64
		prevNode[i] = -1
	}
	dist[src] = 0
	h := append(s.work.heap[:0], pqItem{int32(src), 0})
	defer func() { s.work.heap = h[:0] }()
	for len(h) > 0 {
		it := h[0]
		if it.dist >= limit {
			return false
		}
		h.pop()
		if it.dist > dist[it.v] {
			continue
		}
		if int(it.v) == dst {
			return true
		}
		for ai := range s.adj[it.v] {
			a := &s.adj[it.v][ai]
			if a.cap <= 0 {
				continue
			}
			rc := a.cost + s.pi[it.v] - s.pi[a.to]
			if nd := it.dist + rc; nd < dist[a.to] {
				dist[a.to] = nd
				prevNode[a.to] = it.v
				prevArc[a.to] = int32(ai)
				h.push(pqItem{a.to, nd})
			}
		}
	}
	return false
}

// residualDistances runs one FIFO Bellman–Ford (SPFA) from a virtual source
// joined to every node by a zero-cost arc, over the arcs with residual
// capacity, so that every such arc has nonnegative reduced cost under the
// result. It reports false on a negative cycle. Without one, FIFO order
// queues each node at most once per pass and n passes suffice, so a node
// queued more than n+1 times proves a cycle; counting label improvements
// instead would misfire, since parallel arcs can improve a node several
// times within one pass.
func (s *Solver) residualDistances() ([]int64, bool) {
	dist := make([]int64, s.n)
	if len(s.inQ) != s.n {
		s.inQ = make([]bool, s.n)
		s.queued = make([]int32, s.n)
	}
	inQ, queued := s.inQ, s.queued
	clear(queued)
	queue := s.spfaQ[:0]
	defer func() { s.spfaQ = queue[:0] }()
	for v := 0; v < s.n; v++ {
		queue = append(queue, int32(v))
		inQ[v] = true
	}
	for head := 0; head < len(queue); head++ {
		if head >= s.n {
			// Reclaim the consumed prefix so the buffer stays O(n).
			queue = queue[:copy(queue, queue[head:])]
			head = 0
		}
		u := queue[head]
		inQ[u] = false
		for ai := range s.adj[u] {
			a := &s.adj[u][ai]
			if a.cap <= 0 {
				continue
			}
			if nd := dist[u] + a.cost; nd < dist[a.to] {
				dist[a.to] = nd
				if !inQ[a.to] {
					queued[a.to]++
					if queued[a.to] > int32(s.n)+1 {
						return nil, false
					}
					queue = append(queue, a.to)
					inQ[a.to] = true
				}
			}
		}
	}
	return dist, true
}

type pqItem struct {
	v    int32
	dist int64
}

// pqMCF is a minimal binary min-heap (avoiding container/heap interface
// allocations on this hot path).
type pqMCF []pqItem

func (h *pqMCF) push(it pqItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].dist <= (*h)[i].dist {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *pqMCF) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].dist < old[small].dist {
			small = l
		}
		if r < n && old[r].dist < old[small].dist {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
}

// Flow returns the flow routed through the arc with the given handle.
func (s *Solver) Flow(handle int) int64 {
	ref := s.arcRef[handle]
	if ref[0] < 0 {
		return 0
	}
	a := s.adj[ref[0]][ref[1]]
	// Flow = what moved to the reverse arc.
	return s.adj[a.to][a.rev].cap
}

// ResidualPotentials returns node potentials π with π(x) ≤ π(y) + cost for
// every arc y→x of the optimal residual network, computed by Bellman–Ford
// from a virtual source (all nodes start at 0). Positive-flow arcs are tight
// under π, so for the retiming dual, r(v) = π(v) is an optimal primal
// solution. Call only after Solve succeeded.
func (s *Solver) ResidualPotentials() ([]int64, error) {
	dist, ok := s.residualDistances()
	if !ok {
		return nil, errors.New("mcf: negative residual cycle (flow not optimal)")
	}
	return dist, nil
}
