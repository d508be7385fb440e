package justify

// This file keeps the justifier as it was before it moved to flat tables —
// map-keyed per-serial state, a fresh map-based BDD manager for every local
// and global solve, and a scan of every edge after each global solve —
// verbatim but for its names and the BDD manager's unused operations.
// TestRelocateMatchesLegacy holds the production justifier to it, and
// BenchmarkRelocate times the two.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mcretiming/internal/bdd"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
	"mcretiming/internal/sat"
)

// Flush does nothing: the legacy justifier writes the graph as it goes.
func (j *legacyJustifier) Flush(*mcgraph.MC) {}

// terminalLevel orders terminals below every variable.
const terminalLevel int32 = math.MaxInt32

// legacyRecord is one relocation move, kept for provenance.
type legacyRecord struct {
	backward bool
	gate     *netlist.Gate
	// fanin are the serials at the gate's input pins (created by a backward
	// move, consumed by a forward move); out are the serials at the gate
	// output (consumed by a backward move, created — one — by a forward).
	fanin []int64
	out   []int64
}

// consumed returns the serials this move removed from the graph.
func (r *legacyRecord) consumed() []int64 {
	if r.backward {
		return r.out
	}
	return r.fanin
}

// created returns the serials this move inserted.
func (r *legacyRecord) created() []int64 {
	if r.backward {
		return r.fanin
	}
	return r.out
}

// legacyJustifier implements mcgraph.Hooks over one relocation run.
type legacyJustifier struct {
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

	vals      map[int64][2]logic.Bit    // serial -> {sync, async} value
	origin    map[int64]bool            // serial is an original register
	creator   map[int64]*legacyRecord   // serial -> legacyRecord that created it
	consumers map[int64][]*legacyRecord // serial -> records that consumed it
}

// New returns a legacyJustifier for a relocation on m. It snapshots the values of
// every register instance currently on the graph as original values.
func newLegacy(m *mcgraph.MC) *legacyJustifier {
	j := &legacyJustifier{
		M:         m,
		vals:      make(map[int64][2]logic.Bit),
		origin:    make(map[int64]bool),
		creator:   make(map[int64]*legacyRecord),
		consumers: make(map[int64][]*legacyRecord),
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
func (j *legacyJustifier) ctxErr() error {
	if j.Ctx == nil {
		return nil
	}
	return j.Ctx.Err()
}

// context returns j.Ctx, defaulting to the background context.
func (j *legacyJustifier) context() context.Context {
	if j.Ctx == nil {
		return context.Background()
	}
	return j.Ctx
}

func (j *legacyJustifier) gateOf(v graph.VertexID) (*netlist.Gate, error) {
	vert := &j.M.Verts[v]
	if vert.Kind != mcgraph.KGate {
		return nil, fmt.Errorf("justify: move at non-gate vertex %s", vert.Name)
	}
	return &j.M.Ckt.Gates[vert.Gate], nil
}

// Forward implements mcgraph.Hooks: the created register's reset values are
// the gate function applied to the consumed layer's values, per domain.
func (j *legacyJustifier) Forward(v graph.VertexID, removed []mcgraph.RegInst, inserted mcgraph.RegInst) (mcgraph.RegInst, error) {
	if err := j.ctxErr(); err != nil {
		return inserted, err
	}
	g, err := j.gateOf(v)
	if err != nil {
		return inserted, err
	}
	cls := &j.M.Classes[inserted.Class]
	rec := &legacyRecord{gate: g, out: []int64{inserted.Serial}}
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
func (j *legacyJustifier) Backward(v graph.VertexID, removed, inserted []mcgraph.RegInst) ([]mcgraph.RegInst, error) {
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
	rec := &legacyRecord{backward: true, gate: g}
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
			pinVals[dom], domOK[dom] = legacyAllX(len(inserted)), true
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
			// The legacyRecord is NOT registered: the caller undoes the step, so
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
func (j *legacyJustifier) localBackward(g *netlist.Gate, outSerials []int64, npins int, dom domain) ([]logic.Bit, bool) {
	target := logic.BX
	for _, s := range outSerials {
		v, ok := logic.Meet(target, j.value(s, dom))
		if !ok {
			return nil, false // conflicting required values: Fig. 5 case
		}
		target = v
	}
	if target == logic.BX {
		return legacyAllX(npins), true
	}
	tt, err := g.TruthTable()
	if err != nil {
		// A gate too wide to tabulate cannot be justified across; the caller
		// bounds the vertex, which is the conservative correct outcome.
		return nil, false
	}
	m := newLegacyBDD()
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
	vals := legacyAllX(npins)
	for pin, b := range assign {
		vals[pin] = logic.FromBool(b)
	}
	return vals, true
}

func legacyAllX(n int) []logic.Bit {
	v := make([]logic.Bit, n)
	for i := range v {
		v[i] = logic.BX
	}
	return v
}

func (j *legacyJustifier) value(serial int64, dom domain) logic.Bit {
	return j.vals[serial][dom]
}

func (j *legacyJustifier) register(rec *legacyRecord) {
	for _, s := range rec.created() {
		j.creator[s] = rec
	}
	for _, s := range rec.consumed() {
		j.consumers[s] = append(j.consumers[s], rec)
	}
}

// legacyComponent is the §5.2 trace-back region of one conflict: the ancestor
// moves of the conflicting registers.
type legacyComponent struct {
	recs    []*legacyRecord
	serials map[int64]bool
	// order lists the serials in discovery order. Solver variable numbering
	// must come from here, not from ranging the map: map iteration order
	// would make the BDD variable order — and with it the minimum
	// assignment's don't-care choices — vary run to run.
	order  []int64
	inComp map[*legacyRecord]bool
}

// closure collects the ancestor legacyComponent of seed: for every consumed
// serial the legacyRecord that created it, recursively, down to originals.
func (j *legacyJustifier) closure(seed *legacyRecord) *legacyComponent {
	comp := &legacyComponent{
		recs:    []*legacyRecord{seed},
		serials: make(map[int64]bool),
		inComp:  map[*legacyRecord]bool{seed: true},
	}
	var addSerial func(s int64)
	addSerial = func(s int64) {
		if comp.serials[s] {
			return
		}
		comp.serials[s] = true
		comp.order = append(comp.order, s)
		if r := j.creator[s]; r != nil && !comp.inComp[r] {
			comp.inComp[r] = true
			comp.recs = append(comp.recs, r)
			for _, t := range r.consumed() {
				addSerial(t)
			}
			for _, t := range r.created() {
				addSerial(t)
			}
		}
	}
	for _, s := range seed.consumed() {
		addSerial(s)
	}
	for _, s := range seed.created() {
		addSerial(s)
	}
	return comp
}

// pinned reports whether an out-of-legacyComponent legacyRecord already consumed s —
// its value is a committed decision the re-solve must not change.
func (j *legacyJustifier) pinned(comp *legacyComponent, s int64) bool {
	for _, r := range j.consumers[s] {
		if !comp.inComp[r] {
			return true
		}
	}
	return false
}

// globalJustify resolves a conflict at seed by re-solving its trace-back
// region in one satisfiability problem per domain (paper §5.2, Fig. 5b).
//
// Variables are the reset-value slots of the legacyComponent's serials. Originals
// and pinned serials with known values become unit constraints; unknown
// fixed levels are universally quantified (a derived value may not depend
// on an undefined level). On success every free serial is rewritten with
// maximal don't-cares.
func (j *legacyJustifier) globalJustify(seed *legacyRecord, dom domain, active bool) bool {
	if !active {
		return true
	}
	comp := j.closure(seed)
	if len(comp.serials) > maxGlobalVars {
		return false
	}

	fixed := func(s int64) bool { return j.origin[s] || j.pinned(comp, s) }
	var hasQuantified bool
	for _, s := range comp.order {
		if fixed(s) && !j.value(s, dom).Known() {
			hasQuantified = true
			break
		}
	}

	var assign map[int64]logic.Bit
	var ok bool
	if j.Engine == EngineSAT && !hasQuantified {
		assign, ok = j.solveSAT(comp, dom, fixed)
	} else {
		var overBudget bool
		assign, ok, overBudget = j.solveBDD(comp, dom, fixed)
		// Degradation ladder: a blown node budget says nothing about
		// satisfiability, so retry with the SAT backend — unless the system
		// has quantified unknowns, which plain SAT cannot express.
		if !ok && overBudget && !hasQuantified && j.ctxErr() == nil {
			j.Stats.Escalations++
			assign, ok = j.solveSAT(comp, dom, fixed)
		}
	}
	if !ok {
		return false
	}

	// Write the solution back to every free serial; fixed serials keep
	// their identities.
	for _, s := range comp.order {
		if fixed(s) {
			continue
		}
		vv := j.vals[s]
		vv[dom] = assign[s]
		j.vals[s] = vv
	}
	// Push updated values onto the register instances still on edges.
	for ei := range j.M.Edges {
		regs := j.M.Edges[ei].Regs
		for k := range regs {
			if comp.serials[regs[k].Serial] && !fixed(regs[k].Serial) {
				vv := j.vals[regs[k].Serial]
				if dom == domSync {
					regs[k].S = vv[domSync]
				} else {
					regs[k].A = vv[domAsync]
				}
			}
		}
	}
	return true
}

// solveBDD builds the conjunction of the legacyComponent's gate constraints as a
// BDD and extracts a minimum satisfying assignment. overBudget reports that
// a failure was caused by the node budget rather than unsatisfiability, so
// the caller can escalate to SAT.
func (j *legacyJustifier) solveBDD(comp *legacyComponent, dom domain, fixed func(int64) bool) (assign map[int64]logic.Bit, ok, overBudget bool) {
	m := newLegacyBDD()
	m.MaxNodes = budgetOf(j.BDDNodes, DefaultBDDNodes)
	fail := func() (map[int64]logic.Bit, bool, bool) {
		return nil, false, errors.Is(m.Err(), rterr.ErrBudgetExceeded)
	}
	varOf := make(map[int64]int, len(comp.order))
	for i, s := range comp.order {
		varOf[s] = i
	}

	system := bdd.True
	var quantify []int64
	for _, s := range comp.order {
		if !fixed(s) {
			continue
		}
		if v := j.value(s, dom); v.Known() {
			system = m.And(system, m.Lit(varOf[s], v.Bool()))
		} else {
			quantify = append(quantify, s)
		}
	}
	for _, r := range comp.recs {
		if j.ctxErr() != nil {
			return nil, false, false // Backward surfaces the context error
		}
		tt, err := r.gate.TruthTable()
		if err != nil {
			return nil, false, false // untabulatable gate: genuinely stuck
		}
		pins := make([]int, len(r.fanin))
		for i, s := range r.fanin {
			pins[i] = varOf[s]
		}
		gf := m.FromTruth(tt, pins)
		for _, out := range r.out {
			system = m.And(system, m.Xnor(gf, m.Var(varOf[out])))
			if system == bdd.False || m.Err() != nil {
				return fail()
			}
		}
	}
	// Undefined fixed levels: the solution must hold for every completion.
	for _, s := range quantify {
		v := varOf[s]
		system = m.And(m.Restrict(system, v, false), m.Restrict(system, v, true))
		if system == bdd.False || m.Err() != nil {
			return fail()
		}
	}
	raw, ok := m.MinAssignment(system)
	if !ok {
		return fail()
	}
	assign = make(map[int64]logic.Bit, len(comp.order))
	for _, s := range comp.order {
		if b, ok := raw[varOf[s]]; ok {
			assign[s] = logic.FromBool(b)
		} else {
			assign[s] = logic.BX
		}
	}
	return assign, true, false
}

// solveSAT encodes the legacyComponent as CNF: one clause per gate input pattern
// ("if the inputs match pattern m, the output is tt[m]"), unit clauses for
// fixed values, then a model with greedy don't-care lifting.
func (j *legacyJustifier) solveSAT(comp *legacyComponent, dom domain, fixed func(int64) bool) (map[int64]logic.Bit, bool) {
	varOf := make(map[int64]int, len(comp.order))
	for i, ser := range comp.order {
		varOf[ser] = i
	}
	s := sat.New(len(varOf))
	s.MaxConflicts = budgetOf(j.SATConflicts, DefaultSATConflicts)
	keep := make(map[int]bool)
	for _, ser := range comp.order {
		if !fixed(ser) {
			continue
		}
		v := j.value(ser, dom)
		if !v.Known() {
			return nil, false // quantified: caller routes to BDD
		}
		s.AddClause(sat.L(varOf[ser], !v.Bool()))
		keep[varOf[ser]] = true
	}
	for _, r := range comp.recs {
		tt, err := r.gate.TruthTable()
		if err != nil {
			return nil, false // untabulatable gate: genuinely stuck
		}
		n := len(r.fanin)
		for m := 0; m < 1<<n; m++ {
			outVal := tt>>m&1 == 1
			for _, out := range r.out {
				lits := make([]sat.Lit, 0, n+1)
				for i, fs := range r.fanin {
					// "input i differs from pattern bit i"
					lits = append(lits, sat.L(varOf[fs], m>>i&1 == 1))
				}
				lits = append(lits, sat.L(varOf[out], !outVal))
				s.AddClause(lits...)
			}
		}
	}
	ok, err := s.SolveCtx(j.context())
	if !ok || err != nil {
		return nil, false // a context error is surfaced by Backward
	}
	model := s.Lift(keep)
	assign := make(map[int64]logic.Bit, len(comp.order))
	for _, ser := range comp.order {
		if b, ok := model[varOf[ser]]; ok {
			assign[ser] = logic.FromBool(b)
		} else {
			assign[ser] = logic.BX
		}
	}
	return assign, true
}

// legacyBDD is the map-based BDD manager as the parent justifier used it,
// cut down to the operations the justifier calls.
type legacyNode struct {
	level  int32 // variable index; terminalLevel for terminals
	lo, hi bdd.Ref
}

type legacyITEKey struct{ f, g, h bdd.Ref }

// legacyBDD owns BDD nodes. Variables are dense indices 0..n-1 ordered by
// index (no dynamic reordering).
//
// A legacyBDD fails softly instead of crashing: misuse (a negative variable,
// a too-wide truth table) or blowing through MaxNodes records an error and
// makes subsequent constructions collapse to bdd.False. Callers must check Err
// before trusting any result built since the last check; the justification
// engine treats a failed manager as "this system is beyond the budget" and
// climbs its degradation ladder.
type legacyBDD struct {
	nodes  []legacyNode
	unique map[legacyNode]bdd.Ref
	ite    map[legacyITEKey]bdd.Ref
	nvars  int

	// MaxNodes caps the live legacyNode count; 0 means unlimited. Once exceeded,
	// the manager records a budget error and stops growing.
	MaxNodes int
	err      error
}

// New returns an empty manager with the two terminal nodes.
func newLegacyBDD() *legacyBDD {
	m := &legacyBDD{
		nodes:  []legacyNode{{level: terminalLevel}, {level: terminalLevel}},
		unique: make(map[legacyNode]bdd.Ref),
		ite:    make(map[legacyITEKey]bdd.Ref),
	}
	return m
}

// Err returns the first failure recorded by the manager (nil when healthy):
// a budget overrun wrapping rterr.ErrBudgetExceeded, or misuse wrapping
// rterr.ErrInternal. Results constructed after the first failure are
// unreliable and must be discarded.
func (m *legacyBDD) Err() error { return m.err }

// fail records the manager's first error.
func (m *legacyBDD) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// mk returns the canonical legacyNode for (level, lo, hi).
func (m *legacyBDD) mk(level int32, lo, hi bdd.Ref) bdd.Ref {
	if lo == hi {
		return lo
	}
	n := legacyNode{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[n]; ok {
		return r
	}
	if m.MaxNodes > 0 && len(m.nodes) >= m.MaxNodes {
		m.fail(fmt.Errorf("bdd: legacyNode budget %d exceeded: %w", m.MaxNodes, rterr.ErrBudgetExceeded))
		return bdd.False
	}
	r := bdd.Ref(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.unique[n] = r
	return r
}

// Var returns the function of variable v.
func (m *legacyBDD) Var(v int) bdd.Ref {
	if v < 0 {
		m.fail(fmt.Errorf("bdd: negative variable %d: %w", v, rterr.ErrInternal))
		return bdd.False
	}
	if v >= m.nvars {
		m.nvars = v + 1
	}
	return m.mk(int32(v), bdd.False, bdd.True)
}

// NVar returns the complement of variable v.
func (m *legacyBDD) NVar(v int) bdd.Ref {
	if v < 0 {
		m.fail(fmt.Errorf("bdd: negative variable %d: %w", v, rterr.ErrInternal))
		return bdd.False
	}
	if v >= m.nvars {
		m.nvars = v + 1
	}
	return m.mk(int32(v), bdd.True, bdd.False)
}

// Lit returns Var(v) if val, else NVar(v).
func (m *legacyBDD) Lit(v int, val bool) bdd.Ref {
	if val {
		return m.Var(v)
	}
	return m.NVar(v)
}

func (m *legacyBDD) level(f bdd.Ref) int32 { return m.nodes[f].level }

// ITE computes if-then-else(f, g, h) = f·g + f̄·h.
func (m *legacyBDD) ITE(f, g, h bdd.Ref) bdd.Ref {
	// Terminal cases.
	switch {
	case f == bdd.True:
		return g
	case f == bdd.False:
		return h
	case g == h:
		return g
	case g == bdd.True && h == bdd.False:
		return f
	}
	key := legacyITEKey{f, g, h}
	if r, ok := m.ite[key]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.ite[key] = r
	return r
}

// cofactors returns the negative and positive cofactors of f w.r.t. the
// variable at the given level.
func (m *legacyBDD) cofactors(f bdd.Ref, level int32) (lo, hi bdd.Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *legacyBDD) Not(f bdd.Ref) bdd.Ref { return m.ITE(f, bdd.False, bdd.True) }

// And returns the conjunction of fs (bdd.True for no operands).
func (m *legacyBDD) And(fs ...bdd.Ref) bdd.Ref {
	r := bdd.True
	for _, f := range fs {
		r = m.ITE(r, f, bdd.False)
		if r == bdd.False {
			return bdd.False
		}
	}
	return r
}

// Xnor returns the equivalence f ≡ g.
func (m *legacyBDD) Xnor(f, g bdd.Ref) bdd.Ref { return m.ITE(f, g, m.Not(g)) }

// Restrict returns f with variable v fixed to val.
func (m *legacyBDD) Restrict(f bdd.Ref, v int, val bool) bdd.Ref {
	memo := make(map[bdd.Ref]bdd.Ref)
	var rec func(bdd.Ref) bdd.Ref
	rec = func(g bdd.Ref) bdd.Ref {
		n := m.nodes[g]
		if n.level == terminalLevel || n.level > int32(v) {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r bdd.Ref
		if n.level == int32(v) {
			if val {
				r = n.hi
			} else {
				r = n.lo
			}
		} else {
			r = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	return rec(f)
}

// FromTruth builds the function whose value for the input pattern i (bit j
// of i being the value of vars[j]) is bit i of tt. len(vars) must be ≤ 16;
// wider calls record an error on the manager and return bdd.False.
func (m *legacyBDD) FromTruth(tt uint64, vars []int) bdd.Ref {
	if len(vars) > 16 {
		m.fail(fmt.Errorf("bdd: FromTruth with %d variables (max 16): %w", len(vars), rterr.ErrInternal))
		return bdd.False
	}
	var rec func(prefix, depth int) bdd.Ref
	rec = func(prefix, depth int) bdd.Ref {
		if depth == len(vars) {
			if tt>>prefix&1 == 1 {
				return bdd.True
			}
			return bdd.False
		}
		lo := rec(prefix, depth+1)
		hi := rec(prefix|1<<depth, depth+1)
		return m.ITE(m.Var(vars[depth]), hi, lo)
	}
	return rec(0, 0)
}

// MinAssignment returns a satisfying assignment of f that fixes as few
// variables as possible; variables absent from the map are don't-cares.
// ok is false iff f is unsatisfiable.
//
// It finds a root-to-bdd.True path with the minimum number of decision nodes by
// dynamic programming over the (acyclic) legacyNode graph, which is exactly the
// "select as many don't cares as possible" backward-justification policy of
// paper §5.2.
func (m *legacyBDD) MinAssignment(f bdd.Ref) (assign map[int]bool, ok bool) {
	if f == bdd.False || m.err != nil {
		return nil, false
	}
	const inf = math.MaxInt32
	cost := map[bdd.Ref]int32{bdd.True: 0, bdd.False: inf}
	var measure func(bdd.Ref) int32
	measure = func(g bdd.Ref) int32 {
		if c, ok := cost[g]; ok {
			return c
		}
		n := m.nodes[g]
		c := measure(n.lo)
		if h := measure(n.hi); h < c {
			c = h
		}
		if c < inf {
			c++
		}
		cost[g] = c
		return c
	}
	if measure(f) == inf {
		return nil, false
	}
	assign = make(map[int]bool)
	for f != bdd.True {
		n := m.nodes[f]
		if cost[n.lo] <= cost[n.hi] {
			assign[int(n.level)] = false
			f = n.lo
		} else {
			assign[int(n.level)] = true
			f = n.hi
		}
	}
	return assign, true
}
