// Package justify computes equivalent reset states while registers are
// relocated (paper §5.2).
//
// It implements the mcgraph.Hooks interface. Forward moves derive the new
// register's reset values by implication (three-valued evaluation of the
// gate on the consumed layer's values). Backward moves justify the gate's
// required output value across one gate at a time with BDDs, choosing as
// many don't-cares as possible (a minimum satisfying assignment).
//
// When a local justification conflicts — the fanout registers being removed
// demand different reset values, or the gate cannot produce the required
// value — the justifier escalates to *global* justification: the conflicting
// registers are traced back through the recorded moves to their original
// positions, every move record transitively sharing registers with the
// conflict is collected, and one satisfiability problem over all involved
// reset-value slots is solved. On success all derived values in the region
// are overwritten; on failure the hook returns mcgraph.ErrJustify so the
// caller can bound the offending vertex and compute a new retiming.
//
// Synchronous and asynchronous reset values propagate independently, so the
// two domains are justified as separate systems.
//
// All state is flat: serials are dense (originals are register IDs, later
// ones come from the graph's serial counter), so per-serial state is one
// slice indexed by serial; component membership uses epoch stamps; and one
// bdd.Manager, Reset before every local and global solve, serves the whole
// relocation. Values reach the graph once, when Relocate calls Flush.
package justify

import (
	"context"
	"fmt"
	"slices"

	"mcretiming/internal/bdd"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
)

// domain indexes the two independent reset-value systems.
type domain int

const (
	domSync domain = iota
	domAsync
)

// record is one relocation move, kept for provenance.
type record struct {
	backward bool
	gate     *netlist.Gate
	// fanin are the serials at the gate's input pins (created by a backward
	// move, consumed by a forward move); out are the serials at the gate
	// output (consumed by a backward move, created — one — by a forward).
	fanin []int64
	out   []int64
	stamp uint32 // component epoch this record was last collected in
}

// consumed returns the serials this move removed from the graph.
func (r *record) consumed() []int64 {
	if r.backward {
		return r.out
	}
	return r.fanin
}

// created returns the serials this move inserted.
func (r *record) created() []int64 {
	if r.backward {
		return r.fanin
	}
	return r.out
}

// Stats counts justification work, matching the paper's reporting.
type Stats struct {
	LocalSteps  int // backward steps resolved by one-gate justification
	GlobalSteps int // backward steps that needed global justification
	Conflicts   int // unresolvable conflicts (ErrJustify returned)
	ForwardImpl int // forward steps resolved by implication
	Escalations int // global solves escalated from BDD to SAT on budget
}

// Justifier implements mcgraph.Hooks over one relocation run.
type Justifier struct {
	M     *mcgraph.MC
	Stats Stats
	// Engine selects the global-justification backend (default EngineBDD).
	Engine Engine
	// Ctx carries cancellation into the per-move justification work: it is
	// polled on every hook call and inside the global BDD/SAT search, and
	// its error aborts the relocation. nil means no cancellation.
	Ctx context.Context
	// BDDNodes caps each global-justification BDD. 0 means the package
	// default (DefaultBDDNodes); negative means unlimited. When the cap is
	// hit and the system has no quantified unknowns, the solve escalates
	// to the SAT backend instead of failing outright.
	BDDNodes int
	// SATConflicts caps each SAT solve the same way (0 = default,
	// negative = unlimited). Exhaustion counts as an unresolved conflict,
	// which sends the caller down the §5.2 add-bound-and-re-solve path.
	SATConflicts int

	ser []serialState // indexed by serial
	bdd *bdd.Manager  // Reset before every local and global solve

	// Scratch reused across moves and solves.
	comp         component
	stack        []frame
	removedShown [][2]logic.Bit
	pinBuf       [2][]logic.Bit
	lits         []bdd.Literal
	pins         []int
	assign       []logic.Bit
}

// serialState is everything the justifier knows about one serial.
type serialState struct {
	val       [2]logic.Bit // {sync, async} value
	origin    bool         // an original register
	creator   *record      // the move that created it; nil for originals
	consumers []*record    // the moves that consumed it
	mark      uint32       // component epoch it was last collected in
	varIdx    int32        // its solver variable in that component

	// held[d] says the graph still shows heldVal[d] rather than val[d]: an
	// undone backward step put its removed layer back as it was, after a
	// global solve of that step had rewritten val. A later global solve
	// that rewrites val[d] clears held[d].
	held    [2]bool
	heldVal [2]logic.Bit
}

// shown returns the values the graph shows for the serial.
func (st *serialState) shown() [2]logic.Bit {
	v := st.val
	for d := range v {
		if st.held[d] {
			v[d] = st.heldVal[d]
		}
	}
	return v
}

// hold records that the graph shows v for the serial.
func (st *serialState) hold(v [2]logic.Bit) {
	for d := range v {
		st.held[d] = v[d] != st.val[d]
		st.heldVal[d] = v[d]
	}
}

// New returns a Justifier for a relocation on m. It snapshots the values of
// every register instance currently on the graph as original values. The
// serial table starts with room for every serial on the graph.
func New(m *mcgraph.MC) *Justifier {
	var top int64
	for i := range m.Edges {
		for _, inst := range m.Edges[i].Regs {
			top = max(top, inst.Serial)
		}
	}
	j := &Justifier{M: m, bdd: bdd.New(), ser: make([]serialState, 0, top+1)}
	for i := range m.Edges {
		for _, inst := range m.Edges[i].Regs {
			st := j.state(inst.Serial)
			st.val = [2]logic.Bit{inst.S, inst.A}
			st.origin = true
		}
	}
	return j
}

// state returns the state of serial s, growing the table for a serial not
// seen before; a fresh serial starts fully unknown.
func (j *Justifier) state(s int64) *serialState {
	if int(s) >= len(j.ser) {
		old := len(j.ser)
		j.ser = slices.Grow(j.ser, int(s)+1-old)[:int(s)+1]
		for i := old; i < len(j.ser); i++ {
			j.ser[i] = serialState{val: [2]logic.Bit{logic.BX, logic.BX}}
		}
	}
	return &j.ser[s]
}

// Flush implements mcgraph.Hooks: it copies every serial's reset values
// onto its register instances. The moves leave the instances' values
// stale, so Relocate calls Flush once on its way out.
func (j *Justifier) Flush(m *mcgraph.MC) {
	for ei := range m.Edges {
		regs := m.Edges[ei].Regs
		for k := range regs {
			if s := regs[k].Serial; int(s) < len(j.ser) {
				v := j.ser[s].shown()
				regs[k].S, regs[k].A = v[domSync], v[domAsync]
			}
		}
	}
}

// ctxErr returns the cancellation error of j.Ctx, or nil when no context
// was attached.
func (j *Justifier) ctxErr() error {
	if j.Ctx == nil {
		return nil
	}
	return j.Ctx.Err()
}

// context returns j.Ctx, defaulting to the background context.
func (j *Justifier) context() context.Context {
	if j.Ctx == nil {
		return context.Background()
	}
	return j.Ctx
}

func (j *Justifier) gateOf(v graph.VertexID) (*netlist.Gate, error) {
	vert := &j.M.Verts[v]
	if vert.Kind != mcgraph.KGate {
		return nil, fmt.Errorf("justify: move at non-gate vertex %s", vert.Name)
	}
	return &j.M.Ckt.Gates[vert.Gate], nil
}

// Forward implements mcgraph.Hooks: the created register's reset values are
// the gate function applied to the consumed layer's values, per domain.
func (j *Justifier) Forward(v graph.VertexID, removed []mcgraph.RegInst, inserted mcgraph.RegInst) (mcgraph.RegInst, error) {
	if err := j.ctxErr(); err != nil {
		return inserted, err
	}
	g, err := j.gateOf(v)
	if err != nil {
		return inserted, err
	}
	cls := &j.M.Classes[inserted.Class]
	rec := &record{gate: g, out: []int64{inserted.Serial}}
	in3 := make([]logic.Bit, len(removed))
	for _, r := range removed {
		rec.fanin = append(rec.fanin, r.Serial)
	}
	var newVals [2]logic.Bit
	for _, dom := range []domain{domSync, domAsync} {
		if (dom == domSync && !cls.HasSR()) || (dom == domAsync && !cls.HasAR()) {
			newVals[dom] = logic.BX
			continue
		}
		for i, r := range removed {
			in3[i] = j.value(r.Serial, dom)
		}
		newVals[dom] = g.Eval3(in3)
	}
	inserted.S, inserted.A = newVals[0], newVals[1]
	j.state(inserted.Serial).val = newVals
	j.register(rec)
	j.Stats.ForwardImpl++
	return inserted, nil
}

// Backward implements mcgraph.Hooks: justify the removed layer's values
// across v's gate onto the inserted fanin layer.
func (j *Justifier) Backward(v graph.VertexID, removed, inserted []mcgraph.RegInst) ([]mcgraph.RegInst, error) {
	if err := j.ctxErr(); err != nil {
		return inserted, err
	}
	// Chaos hook: backward moves carry all the reset-state cost, so this is
	// where justification failures are injected.
	if err := failpoint.Inject(j.context(), "justify.backward"); err != nil {
		return inserted, err
	}
	g, err := j.gateOf(v)
	if err != nil {
		return inserted, err
	}
	cls := &j.M.Classes[inserted[0].Class]
	rec := &record{backward: true, gate: g, fanin: make([]int64, len(inserted)), out: make([]int64, len(removed))}
	for i, r := range removed {
		rec.out[i] = r.Serial
	}
	for i, r := range inserted {
		rec.fanin[i] = r.Serial
		j.state(r.Serial).val = [2]logic.Bit{logic.BX, logic.BX}
	}

	// The two domains are independent systems: their reset values never
	// interact, so each is justified locally on its own.
	var domOK [2]bool
	for _, dom := range [...]domain{domSync, domAsync} {
		if (dom == domSync && !cls.HasSR()) || (dom == domAsync && !cls.HasAR()) {
			j.pinBuf[dom], domOK[dom] = allX(j.pinBuf[dom], len(inserted)), true
			continue
		}
		j.pinBuf[dom], domOK[dom] = j.localBackward(j.pinBuf[dom], g, rec.out, len(inserted), dom)
	}
	needGlobal := !domOK[domSync] || !domOK[domAsync]

	if needGlobal {
		j.Stats.GlobalSteps++
		// What the graph shows for the removed layer: if the step is undone,
		// the layer goes back exactly so, whatever the solves below write.
		j.removedShown = j.removedShown[:0]
		for _, s := range rec.out {
			j.removedShown = append(j.removedShown, j.ser[s].shown())
		}
		okS := j.globalJustify(rec, domSync, cls.HasSR())
		okA := okS && j.globalJustify(rec, domAsync, cls.HasAR())
		if !okS || !okA {
			// Cancellation aborts the search from inside; it must surface as
			// the context's error, not as a justification conflict.
			if err := j.ctxErr(); err != nil {
				return inserted, err
			}
			// The record is NOT registered: the caller undoes the step, so
			// it must not haunt later global systems.
			for i, s := range rec.out {
				j.ser[s].hold(j.removedShown[i])
			}
			j.Stats.Conflicts++
			return inserted, mcgraph.ErrUnjustifiable
		}
		j.register(rec)
		// globalJustify stored the values; read them back.
		for i := range inserted {
			vv := j.ser[inserted[i].Serial].val
			inserted[i].S, inserted[i].A = vv[0], vv[1]
		}
		return inserted, nil
	}

	j.register(rec)
	j.Stats.LocalSteps++
	for i := range inserted {
		inserted[i].S = j.pinBuf[domSync][i]
		inserted[i].A = j.pinBuf[domAsync][i]
		j.ser[inserted[i].Serial].val = [2]logic.Bit{inserted[i].S, inserted[i].A}
	}
	return inserted, nil
}

// localBackward justifies one domain across one gate into dst: all removed
// fanout values must agree (meet), and the gate must be able to produce the
// target. Don't-cares are maximized via a minimum satisfying assignment.
func (j *Justifier) localBackward(dst []logic.Bit, g *netlist.Gate, outSerials []int64, npins int, dom domain) ([]logic.Bit, bool) {
	target := logic.BX
	for _, s := range outSerials {
		v, ok := logic.Meet(target, j.value(s, dom))
		if !ok {
			return dst, false // conflicting required values: Fig. 5 case
		}
		target = v
	}
	if target == logic.BX {
		return allX(dst, npins), true
	}
	tt, err := g.TruthTable()
	if err != nil {
		// A gate too wide to tabulate cannot be justified across; the caller
		// bounds the vertex, which is the conservative correct outcome.
		return dst, false
	}
	m := j.bdd
	m.Reset()
	j.pins = j.pins[:0]
	for i := 0; i < npins; i++ {
		j.pins = append(j.pins, i)
	}
	f := m.FromTruth(tt, j.pins)
	if target == logic.B0 {
		f = m.Not(f)
	}
	var ok bool
	j.lits, ok = m.AppendMinAssignment(j.lits[:0], f)
	if !ok {
		return dst, false
	}
	dst = allX(dst, npins)
	for _, l := range j.lits {
		dst[l.Var] = logic.FromBool(l.Val)
	}
	return dst, true
}

// allX resizes dst to n unknown values.
func allX(dst []logic.Bit, n int) []logic.Bit {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, logic.BX)
	}
	return dst
}

func (j *Justifier) value(serial int64, dom domain) logic.Bit {
	return j.ser[serial].val[dom]
}

func (j *Justifier) register(rec *record) {
	for _, s := range rec.created() {
		j.ser[s].creator = rec
	}
	for _, s := range rec.consumed() {
		st := &j.ser[s]
		st.consumers = append(st.consumers, rec)
	}
}
