package mcgraph

import (
	"context"
	"math/bits"

	"mcretiming/internal/graph"
	"mcretiming/internal/trace"
)

// BoundsInfo carries the mc-retiming bounds of §4.1 plus the bookkeeping the
// sharing transform and the paper's #Step metric need.
type BoundsInfo struct {
	// RMax[v] is the backward bound r_max^mc(v) ≥ 0; RMin[v] the forward
	// bound r_min^mc(v) ≤ 0. For vertices on all-compatible cycles the
	// corresponding Unbounded flag is set and the count is the cap reached.
	RMax, RMin                 []int32
	UnboundedMax, UnboundedMin []bool
	// BackwardClasses[e] is the register class sequence of edge e after
	// maximal backward retiming, source end first — all §4.2 needs of the
	// maximally backward retimed graph.
	BackwardClasses [][]ClassID
	// StepsPossible is Σ_v (r_max + |r_min|): the paper's "#Step" second
	// number, the total number of valid mc-retiming steps.
	StepsPossible int64
}

// ComputeBounds is ComputeBoundsCtx without cancellation.
func (m *MC) ComputeBounds() *BoundsInfo {
	info, err := m.ComputeBoundsCtx(context.Background())
	if err != nil {
		// Unreachable: the background context never cancels and the sweeps
		// have no other failure mode.
		panic(err)
	}
	return info
}

// ComputeBoundsCtx derives the mc-retiming bounds by maximal backward and
// maximal forward retiming (§4.1). Reset values are ignored, exactly as the
// paper prescribes, so the sweeps track register classes only and leave m
// untouched.
//
// Maximal retiming need not terminate when a cycle's register layers stay
// compatible all the way around (registers can rotate forever). A vertex
// whose move count exceeds the total number of register instances has
// necessarily cycled, so it is excluded from further moves and reported
// unbounded in that direction — "arbitrarily many layers available".
//
// The context is polled inside each sweep's worklist loop; on cancellation
// its error is returned. The number of multi-layer moves both sweeps made is
// reported as the bounds-moves trace counter.
func (m *MC) ComputeBoundsCtx(ctx context.Context) (*BoundsInfo, error) {
	cap32 := int32(m.NumRegInstances()) + 1
	bw := newSweep(m, true)
	rmax, ubMax, err := bw.run(ctx, cap32)
	if err != nil {
		return nil, err
	}
	fw := newSweep(m, false)
	fw.free = bw.free // the forward sweep reuses what the backward one drained
	rmin, ubMin, err := fw.run(ctx, cap32)
	if err != nil {
		return nil, err
	}
	trace.From(ctx).Add("bounds-moves", bw.moves+fw.moves)

	info := &BoundsInfo{
		RMax: rmax, RMin: make([]int32, len(m.Verts)),
		UnboundedMax: ubMax, UnboundedMin: ubMin,
		BackwardClasses: make([][]ClassID, len(m.Edges)),
	}
	for v := range m.Verts {
		info.RMin[v] = -rmin[v]
		info.StepsPossible += int64(rmax[v]) + int64(rmin[v])
	}
	for e := range bw.seq {
		info.BackwardClasses[e] = bw.seq[e].live()
	}
	return info, nil
}

// classFIFO is one edge's register class sequence with its consumed prefix
// dropped lazily: buf[head:] is live.
type classFIFO struct {
	buf  []ClassID
	head int
}

func (q *classFIFO) live() []ClassID { return q.buf[q.head:] }

// pop drops the k classes at the head. A drained buffer goes back to free;
// once the dropped prefix outweighs the live part, the live part moves to a
// buffer from free sized for it, so a sequence never pins more than about
// twice its live length.
func (q *classFIFO) pop(k int, free *bufFree) {
	q.head += k
	switch live := len(q.buf) - q.head; {
	case live == 0:
		free.put(q.buf)
		q.buf, q.head = nil, 0
	case q.head >= live:
		old := q.buf
		q.buf, q.head = append(free.get(live), old[q.head:]...), 0
		free.put(old)
	}
}

// push appends classes at the tail. When they do not fit, the live part and
// the classes move to a buffer from free with room for them, and the old
// buffer goes back to free. Capacities are powers of two, so a sequence that
// grows by one class at a time still doubles its buffer.
func (q *classFIFO) push(classes []ClassID, free *bufFree) {
	if len(q.buf)+len(classes) <= cap(q.buf) {
		q.buf = append(q.buf, classes...)
		return
	}
	old := q.buf
	q.buf = append(append(free.get(len(old)-q.head+len(classes)), old[q.head:]...), classes...)
	q.head = 0
	free.put(old)
}

// bufFree is the free list of the class buffers one bounds computation's
// sweeps drain, bucketed by capacity: f[k] holds buffers of capacity in
// [2^k, 2^(k+1)). A layer stream travelling down a pipeline fills each edge's
// buffer and drains it again one move later, so the same few buffers carry
// it the whole way instead of a fresh one per edge. The list dies with the
// computation; no buffer outlives it except the live ones BackwardClasses
// keeps.
type bufFree [][][]ClassID

// minBufLog is the log₂ of the smallest capacity get returns and put keeps.
// Smaller buffers, the one-register initial sequences of most edges above
// all, would only pile up in the list unused.
const minBufLog = 3

// get returns an empty buffer of capacity at least n ≥ 1: a recycled one if
// bucket ⌈log₂ n⌉ has one, else a new one of capacity 2^⌈log₂ n⌉.
func (f *bufFree) get(n int) []ClassID {
	k := max(bits.Len(uint(n-1)), minBufLog)
	if k < len(*f) {
		if b := (*f)[k]; len(b) > 0 {
			(*f)[k] = b[:len(b)-1]
			return b[len(b)-1][:0]
		}
	}
	return make([]ClassID, 0, 1<<k)
}

// put recycles b, which no sequence may reference any longer.
func (f *bufFree) put(b []ClassID) {
	k := bits.Len(uint(cap(b))) - 1
	if k < minBufLog {
		return
	}
	for len(*f) <= k {
		*f = append(*f, nil)
	}
	(*f)[k] = append((*f)[k], b)
}

// sweep is one direction of maximal retiming phrased as a backward sweep:
// a move at v pops register layers off the heads of v's consumed edges and
// appends them to the tails of v's produced edges. The backward sweep
// consumes out-edges, whose heads are their source ends. The forward sweep
// is the backward sweep of the transposed graph: it consumes in-edges and
// stores every sequence reversed, sink end first.
type sweep struct {
	m                  *MC
	backward           bool
	consumed, produced [][]int32 // edge indices per vertex
	seq                []classFIFO
	free               bufFree
	moves              int64
}

func newSweep(m *MC, backward bool) *sweep {
	s := &sweep{m: m, backward: backward, seq: make([]classFIFO, len(m.Edges))}
	s.consumed, s.produced = m.in, m.out
	if backward {
		s.consumed, s.produced = m.out, m.in
	}
	// One backing array for every initial sequence; capacities are clipped
	// so an append never spills into the next edge's sequence.
	all := make([]ClassID, 0, m.NumRegInstances())
	for i := range m.Edges {
		regs := m.Edges[i].Regs
		start := len(all)
		for j := range regs {
			r := regs[j]
			if !backward {
				r = regs[len(regs)-1-j]
			}
			all = append(all, r.Class)
		}
		s.seq[i].buf = all[start:len(all):len(all)]
	}
	return s
}

// consumer returns the vertex that pops edge ei's head in this sweep.
func (s *sweep) consumer(ei int32) graph.VertexID {
	if s.backward {
		return s.m.Edges[ei].From
	}
	return s.m.Edges[ei].To
}

// producer returns the vertex that appends to edge ei's tail in this sweep.
func (s *sweep) producer(ei int32) graph.VertexID {
	if s.backward {
		return s.m.Edges[ei].To
	}
	return s.m.Edges[ei].From
}

// canMove reports whether v may ever move: Movable, and no frozen edge on
// either side (the NoMove rule of CanBackward/CanForward).
func (s *sweep) canMove(v graph.VertexID) bool {
	if !s.m.Movable(v) {
		return false
	}
	for _, side := range [2][]int32{s.consumed[v], s.produced[v]} {
		for _, ei := range side {
			if s.m.Edges[ei].NoMove {
				return false
			}
		}
	}
	return true
}

// layers returns how many register layers v can move at once, at most
// limit: the longest class prefix that every consumed edge of v carries,
// position by position.
func (s *sweep) layers(v graph.VertexID, limit int32) int {
	cons := s.consumed[v]
	first := s.seq[cons[0]].live()
	k := min(int(limit), len(first))
	for _, ei := range cons[1:] {
		q := s.seq[ei].live()
		k = min(k, len(q))
		for i := 0; i < k; i++ {
			if q[i] != first[i] {
				k = i
				break
			}
		}
	}
	return k
}

// order returns the movable vertices in a postorder of the depth-first
// search that follows each consumed edge to its producer, so that on the
// acyclic parts of the graph every vertex comes after all the vertices that
// feed it layers. Back edges of cycles are simply not followed, which keeps
// the order well defined on any graph.
func (s *sweep) order(movable []bool) []graph.VertexID {
	type frame struct {
		v    graph.VertexID
		next int
	}
	seen := make([]bool, len(movable))
	order := make([]graph.VertexID, 0, len(movable))
	var stack []frame
	for root := range movable {
		if !movable[root] || seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack, frame{v: graph.VertexID(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if cons := s.consumed[f.v]; f.next < len(cons) {
				w := s.producer(cons[f.next])
				f.next++
				if movable[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, frame{v: w})
				}
				continue
			}
			order = append(order, f.v)
			stack = stack[:len(stack)-1]
		}
	}
	return order
}

// run moves layers to a fixpoint and returns the per-vertex move counts and
// unbounded flags.
//
// Each pop of v moves k layers at once, k the smallest of the remaining cap,
// the shortest consumed sequence and the longest class prefix all consumed
// edges share: exactly the unit steps v would take in a row. Afterwards v is
// stuck — on a class mismatch only v itself could clear, an empty edge, or
// the cap — until a producer appends to one of its edges, and appending is
// what re-enqueues the consumer. Seeding the stack so that producers pop
// before their consumers lets a layer stream travel a pipeline in one move
// per vertex instead of one move per layer.
func (s *sweep) run(ctx context.Context, cap32 int32) (counts []int32, unbounded []bool, err error) {
	n := len(s.m.Verts)
	counts = make([]int32, n)
	unbounded = make([]bool, n)
	movable := make([]bool, n)
	for v := range movable {
		movable[v] = s.canMove(graph.VertexID(v))
	}
	order := s.order(movable)

	inQ := make([]bool, n)
	stack := make([]graph.VertexID, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		inQ[order[i]] = true
		stack = append(stack, order[i])
	}
	var prefix []ClassID
	for pops := 0; len(stack) > 0; pops++ {
		if pops&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		inQ[v] = false
		k := s.layers(v, cap32-counts[v])
		if k == 0 {
			continue
		}
		// Copy the moving layers out first: on a self-loop the consumed
		// and produced edge are the same sequence.
		prefix = append(prefix[:0], s.seq[s.consumed[v][0]].live()[:k]...)
		for _, ei := range s.consumed[v] {
			s.seq[ei].pop(k, &s.free)
		}
		for _, ei := range s.produced[v] {
			s.seq[ei].push(prefix, &s.free)
			if u := s.consumer(ei); movable[u] && !inQ[u] && !unbounded[u] {
				inQ[u] = true
				stack = append(stack, u)
			}
		}
		s.moves++
		counts[v] += int32(k)
		if counts[v] >= cap32 {
			unbounded[v] = true
		}
	}
	return counts, unbounded, nil
}

// GraphBounds converts the mc bounds into basic-retiming bounds over the
// projected graph's vertices (same indexing). Pinned vertices get [0,0];
// unbounded directions are left open.
func (info *BoundsInfo) GraphBounds(m *MC) *graph.Bounds {
	n := len(m.Verts)
	b := graph.NewBounds(n)
	for v := 0; v < n; v++ {
		if m.Verts[v].Pinned {
			b.Min[v], b.Max[v] = 0, 0
			continue
		}
		if !info.UnboundedMin[v] {
			b.Min[v] = info.RMin[v]
		}
		if !info.UnboundedMax[v] {
			b.Max[v] = info.RMax[v]
		}
	}
	return b
}
