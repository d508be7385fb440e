package justify

import (
	"errors"

	"mcretiming/internal/bdd"
	"mcretiming/internal/logic"
	"mcretiming/internal/rterr"
	"mcretiming/internal/sat"
)

// maxGlobalVars caps the size of a global justification system;
// DefaultBDDNodes and DefaultSATConflicts are the per-solve budgets used
// when the Justifier's fields are zero. Beyond the caps the degradation
// ladder runs: a blown BDD escalates to SAT, a blown SAT solve counts as an
// unresolved conflict (the caller re-retimes with a tightened bound). Real
// conflict regions are tiny — the paper reports global justification for
// <1% of steps — so the budgets only guard blowup.
const (
	maxGlobalVars       = 512
	DefaultBDDNodes     = 1 << 20
	DefaultSATConflicts = 1 << 20
)

// budgetOf resolves a user budget field: 0 = the default, negative =
// unlimited (expressed as 0 to the solver).
func budgetOf(v, def int) int {
	if v < 0 {
		return 0
	}
	if v == 0 {
		return def
	}
	return v
}

// Engine selects the global-justification backend.
type Engine int

// Engines. The paper's implementation uses BDDs (the default); the SAT
// backend is the modern alternative and an ablation point. SAT falls back
// to BDD when the system has universally-quantified unknowns, which plain
// SAT cannot express.
const (
	EngineBDD Engine = iota
	EngineSAT
)

// component is the §5.2 trace-back region of one conflict: the ancestor
// moves of the conflicting registers. Membership is stamped on the records
// and serials with the collection's epoch.
type component struct {
	epoch uint32
	recs  []*record
	// order lists the serials in discovery order; a serial's index in it is
	// its solver variable (serialState.varIdx), so the BDD variable order —
	// and with it the minimum assignment's don't-care choices — is fixed.
	order []int64
	fixed []bool // fixed[i]: order[i] keeps its value (see globalJustify)
}

// frame is one record of closure's depth-first walk: next indexes its
// consumed serials, then its created ones.
type frame struct {
	rec  *record
	next int
}

// closure collects into j.comp the ancestor component of seed: for every
// consumed serial the record that created it, recursively, down to
// originals. It visits serials in the order of a depth-first recursion and
// gives up, returning false, once the component passes maxGlobalVars
// serials.
func (j *Justifier) closure(seed *record) bool {
	c := &j.comp
	c.epoch++
	seed.stamp = c.epoch
	c.recs = append(c.recs[:0], seed)
	c.order = c.order[:0]
	stack := append(j.stack[:0], frame{rec: seed})
	defer func() { j.stack = stack[:0] }()
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		consumed, created := top.rec.consumed(), top.rec.created()
		var s int64
		switch {
		case top.next < len(consumed):
			s = consumed[top.next]
		case top.next < len(consumed)+len(created):
			s = created[top.next-len(consumed)]
		default:
			stack = stack[:len(stack)-1]
			continue
		}
		top.next++
		st := &j.ser[s]
		if st.mark == c.epoch {
			continue
		}
		st.mark, st.varIdx = c.epoch, int32(len(c.order))
		c.order = append(c.order, s)
		if len(c.order) > maxGlobalVars {
			return false
		}
		if r := st.creator; r != nil && r.stamp != c.epoch {
			r.stamp = c.epoch
			c.recs = append(c.recs, r)
			stack = append(stack, frame{rec: r})
		}
	}
	return true
}

// pinned reports whether an out-of-component record already consumed s —
// its value is a committed decision the re-solve must not change.
func (j *Justifier) pinned(s int64) bool {
	for _, r := range j.ser[s].consumers {
		if r.stamp != j.comp.epoch {
			return true
		}
	}
	return false
}

// globalJustify resolves a conflict at seed by re-solving its trace-back
// region in one satisfiability problem per domain (paper §5.2, Fig. 5b).
//
// Variables are the reset-value slots of the component's serials. Originals
// and pinned serials with known values become unit constraints; unknown
// fixed levels are universally quantified (a derived value may not depend
// on an undefined level). On success every free serial is rewritten with
// maximal don't-cares; the graph picks the values up at Flush.
func (j *Justifier) globalJustify(seed *record, dom domain, active bool) bool {
	if !active {
		return true
	}
	if !j.closure(seed) {
		return false
	}
	c := &j.comp
	c.fixed = c.fixed[:0]
	var hasQuantified bool
	for _, s := range c.order {
		fixed := j.ser[s].origin || j.pinned(s)
		c.fixed = append(c.fixed, fixed)
		if fixed && !j.value(s, dom).Known() {
			hasQuantified = true
		}
	}

	var ok bool
	if j.Engine == EngineSAT && !hasQuantified {
		ok = j.solveSAT(dom)
	} else {
		var overBudget bool
		ok, overBudget = j.solveBDD(dom)
		// Degradation ladder: a blown node budget says nothing about
		// satisfiability, so retry with the SAT backend — unless the system
		// has quantified unknowns, which plain SAT cannot express.
		if !ok && overBudget && !hasQuantified && j.ctxErr() == nil {
			j.Stats.Escalations++
			ok = j.solveSAT(dom)
		}
	}
	if !ok {
		return false
	}

	// Write the solution (j.assign, by variable) back to every free serial;
	// fixed serials keep their identities.
	for i, s := range c.order {
		if c.fixed[i] {
			continue
		}
		st := &j.ser[s]
		st.val[dom] = j.assign[i]
		st.held[dom] = false
	}
	return true
}

// solveBDD builds the conjunction of the component's gate constraints as a
// BDD and extracts a minimum satisfying assignment into j.assign. overBudget
// reports that a failure was caused by the node budget rather than
// unsatisfiability, so the caller can escalate to SAT.
func (j *Justifier) solveBDD(dom domain) (ok, overBudget bool) {
	c := &j.comp
	m := j.bdd
	m.Reset()
	m.MaxNodes = budgetOf(j.BDDNodes, DefaultBDDNodes)
	fail := func() (bool, bool) {
		return false, errors.Is(m.Err(), rterr.ErrBudgetExceeded)
	}

	system := bdd.True
	var quantify []int
	for i, s := range c.order {
		if !c.fixed[i] {
			continue
		}
		if v := j.value(s, dom); v.Known() {
			system = m.And(system, m.Lit(i, v.Bool()))
		} else {
			quantify = append(quantify, i)
		}
	}
	for _, r := range c.recs {
		if j.ctxErr() != nil {
			return false, false // Backward surfaces the context error
		}
		tt, err := r.gate.TruthTable()
		if err != nil {
			return false, false // untabulatable gate: genuinely stuck
		}
		j.pins = j.pins[:0]
		for _, s := range r.fanin {
			j.pins = append(j.pins, int(j.ser[s].varIdx))
		}
		gf := m.FromTruth(tt, j.pins)
		for _, out := range r.out {
			system = m.And(system, m.Xnor(gf, m.Var(int(j.ser[out].varIdx))))
			if system == bdd.False || m.Err() != nil {
				return fail()
			}
		}
	}
	// Undefined fixed levels: the solution must hold for every completion.
	for _, v := range quantify {
		system = m.And(m.Restrict(system, v, false), m.Restrict(system, v, true))
		if system == bdd.False || m.Err() != nil {
			return fail()
		}
	}
	j.lits, ok = m.AppendMinAssignment(j.lits[:0], system)
	if !ok {
		return fail()
	}
	j.assign = allX(j.assign, len(c.order))
	for _, l := range j.lits {
		j.assign[l.Var] = logic.FromBool(l.Val)
	}
	return true, false
}

// solveSAT encodes the component as CNF: one clause per gate input pattern
// ("if the inputs match pattern m, the output is tt[m]"), unit clauses for
// fixed values, then a model with greedy don't-care lifting into j.assign.
func (j *Justifier) solveSAT(dom domain) bool {
	c := &j.comp
	varOf := func(s int64) int { return int(j.ser[s].varIdx) }
	s := sat.New(len(c.order))
	s.MaxConflicts = budgetOf(j.SATConflicts, DefaultSATConflicts)
	keep := make(map[int]bool)
	for i, ser := range c.order {
		if !c.fixed[i] {
			continue
		}
		v := j.value(ser, dom)
		if !v.Known() {
			return false // quantified: caller routes to BDD
		}
		s.AddClause(sat.L(i, !v.Bool()))
		keep[i] = true
	}
	for _, r := range c.recs {
		tt, err := r.gate.TruthTable()
		if err != nil {
			return false // untabulatable gate: genuinely stuck
		}
		n := len(r.fanin)
		for m := 0; m < 1<<n; m++ {
			outVal := tt>>m&1 == 1
			for _, out := range r.out {
				lits := make([]sat.Lit, 0, n+1)
				for i, fs := range r.fanin {
					// "input i differs from pattern bit i"
					lits = append(lits, sat.L(varOf(fs), m>>i&1 == 1))
				}
				lits = append(lits, sat.L(varOf(out), !outVal))
				s.AddClause(lits...)
			}
		}
	}
	ok, err := s.SolveCtx(j.context())
	if !ok || err != nil {
		return false // a context error is surfaced by Backward
	}
	model := s.Lift(keep)
	j.assign = allX(j.assign, len(c.order))
	for i := range c.order {
		if b, ok := model[i]; ok {
			j.assign[i] = logic.FromBool(b)
		}
	}
	return true
}
