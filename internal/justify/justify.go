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
package justify

import (
	"context"
	"fmt"

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

	vals      map[int64][2]logic.Bit // serial -> {sync, async} value
	origin    map[int64]bool         // serial is an original register
	creator   map[int64]*record      // serial -> record that created it
	consumers map[int64][]*record    // serial -> records that consumed it
}

// New returns a Justifier for a relocation on m. It snapshots the values of
// every register instance currently on the graph as original values.
func New(m *mcgraph.MC) *Justifier {
	j := &Justifier{
		M:         m,
		vals:      make(map[int64][2]logic.Bit),
		origin:    make(map[int64]bool),
		creator:   make(map[int64]*record),
		consumers: make(map[int64][]*record),
	}
	for i := range m.Edges {
		for _, inst := range m.Edges[i].Regs {
			j.vals[inst.Serial] = [2]logic.Bit{inst.S, inst.A}
			j.origin[inst.Serial] = true
		}
	}
	return j
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
	j.register(rec)
	j.vals[inserted.Serial] = newVals
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
	rec := &record{backward: true, gate: g}
	for _, r := range removed {
		rec.out = append(rec.out, r.Serial)
	}
	for _, r := range inserted {
		rec.fanin = append(rec.fanin, r.Serial)
		// Fresh serials start fully unknown (the map's zero value would
		// read as 0/0, which is a concrete level).
		j.vals[r.Serial] = [2]logic.Bit{logic.BX, logic.BX}
	}

	// The two domains are independent systems: their reset values never
	// interact, so each is justified locally on its own.
	var pinVals [2][]logic.Bit
	var domOK [2]bool
	for _, dom := range [...]domain{domSync, domAsync} {
		if (dom == domSync && !cls.HasSR()) || (dom == domAsync && !cls.HasAR()) {
			pinVals[dom], domOK[dom] = allX(len(inserted)), true
			continue
		}
		pinVals[dom], domOK[dom] = j.localBackward(g, rec.out, len(inserted), dom)
	}
	needGlobal := !domOK[domSync] || !domOK[domAsync]

	if needGlobal {
		j.Stats.GlobalSteps++
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
			j.Stats.Conflicts++
			return inserted, mcgraph.ErrUnjustifiable
		}
		j.register(rec)
		// globalJustify stored the values; read them back.
		for i := range inserted {
			vv := j.vals[inserted[i].Serial]
			inserted[i].S, inserted[i].A = vv[0], vv[1]
		}
		return inserted, nil
	}

	j.register(rec)
	j.Stats.LocalSteps++
	for i := range inserted {
		inserted[i].S = pinVals[domSync][i]
		inserted[i].A = pinVals[domAsync][i]
		j.vals[inserted[i].Serial] = [2]logic.Bit{inserted[i].S, inserted[i].A}
	}
	return inserted, nil
}

// localBackward justifies one domain across one gate: all removed fanout
// values must agree (meet), and the gate must be able to produce the target.
// Don't-cares are maximized via a minimum satisfying assignment.
func (j *Justifier) localBackward(g *netlist.Gate, outSerials []int64, npins int, dom domain) ([]logic.Bit, bool) {
	target := logic.BX
	for _, s := range outSerials {
		v, ok := logic.Meet(target, j.value(s, dom))
		if !ok {
			return nil, false // conflicting required values: Fig. 5 case
		}
		target = v
	}
	if target == logic.BX {
		return allX(npins), true
	}
	tt, err := g.TruthTable()
	if err != nil {
		// A gate too wide to tabulate cannot be justified across; the caller
		// bounds the vertex, which is the conservative correct outcome.
		return nil, false
	}
	m := bdd.New()
	vars := make([]int, npins)
	for i := range vars {
		vars[i] = i
	}
	f := m.FromTruth(tt, vars)
	if target == logic.B0 {
		f = m.Not(f)
	}
	assign, ok := m.MinAssignment(f)
	if !ok {
		return nil, false
	}
	vals := allX(npins)
	for pin, b := range assign {
		vals[pin] = logic.FromBool(b)
	}
	return vals, true
}

func allX(n int) []logic.Bit {
	v := make([]logic.Bit, n)
	for i := range v {
		v[i] = logic.BX
	}
	return v
}

func (j *Justifier) value(serial int64, dom domain) logic.Bit {
	return j.vals[serial][dom]
}

func (j *Justifier) register(rec *record) {
	for _, s := range rec.created() {
		j.creator[s] = rec
	}
	for _, s := range rec.consumed() {
		j.consumers[s] = append(j.consumers[s], rec)
	}
}
