package bdd

// This file keeps the map-based manager the flat one replaced, verbatim but
// for its names: oracleManager and newOracle. FuzzManager replays the same
// programs on both and requires identical results.

import (
	"fmt"
	"math"
	"sort"

	"mcretiming/internal/rterr"
)

type oracleNode struct {
	level  int32 // variable index; terminalLevel for terminals
	lo, hi Ref
}

type oracleITEKey struct{ f, g, h Ref }

// oracleManager owns BDD nodes. Variables are dense indices 0..n-1 ordered by
// index (no dynamic reordering).
//
// An oracleManager fails softly instead of crashing: misuse (a negative variable,
// a too-wide truth table) or blowing through MaxNodes records an error and
// makes subsequent constructions collapse to False. Callers must check Err
// before trusting any result built since the last check; the justification
// engine treats a failed manager as "this system is beyond the budget" and
// climbs its degradation ladder.
type oracleManager struct {
	nodes  []oracleNode
	unique map[oracleNode]Ref
	ite    map[oracleITEKey]Ref
	nvars  int

	// MaxNodes caps the live node count; 0 means unlimited. Once exceeded,
	// the manager records a budget error and stops growing.
	MaxNodes int
	err      error
}

// newOracle returns an empty manager with the two terminal nodes.
func newOracle() *oracleManager {
	m := &oracleManager{
		nodes:  []oracleNode{{level: terminalLevel}, {level: terminalLevel}},
		unique: make(map[oracleNode]Ref),
		ite:    make(map[oracleITEKey]Ref),
	}
	return m
}

// NumNodes returns the number of live nodes including terminals.
func (m *oracleManager) NumNodes() int { return len(m.nodes) }

// Err returns the first failure recorded by the manager (nil when healthy):
// a budget overrun wrapping rterr.ErrBudgetExceeded, or misuse wrapping
// rterr.ErrInternal. Results constructed after the first failure are
// unreliable and must be discarded.
func (m *oracleManager) Err() error { return m.err }

// fail records the manager's first error.
func (m *oracleManager) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// NumVars returns the highest variable index ever used plus one.
func (m *oracleManager) NumVars() int { return m.nvars }

// mk returns the canonical node for (level, lo, hi).
func (m *oracleManager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	n := oracleNode{level: level, lo: lo, hi: hi}
	if r, ok := m.unique[n]; ok {
		return r
	}
	if m.MaxNodes > 0 && len(m.nodes) >= m.MaxNodes {
		m.fail(fmt.Errorf("bdd: node budget %d exceeded: %w", m.MaxNodes, rterr.ErrBudgetExceeded))
		return False
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.unique[n] = r
	return r
}

// Var returns the function of variable v.
func (m *oracleManager) Var(v int) Ref {
	if v < 0 {
		m.fail(fmt.Errorf("bdd: negative variable %d: %w", v, rterr.ErrInternal))
		return False
	}
	if v >= m.nvars {
		m.nvars = v + 1
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the complement of variable v.
func (m *oracleManager) NVar(v int) Ref {
	if v < 0 {
		m.fail(fmt.Errorf("bdd: negative variable %d: %w", v, rterr.ErrInternal))
		return False
	}
	if v >= m.nvars {
		m.nvars = v + 1
	}
	return m.mk(int32(v), True, False)
}

// Lit returns Var(v) if val, else NVar(v).
func (m *oracleManager) Lit(v int, val bool) Ref {
	if val {
		return m.Var(v)
	}
	return m.NVar(v)
}

func (m *oracleManager) level(f Ref) int32 { return m.nodes[f].level }

// ITE computes if-then-else(f, g, h) = f·g + f̄·h.
func (m *oracleManager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	key := oracleITEKey{f, g, h}
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
func (m *oracleManager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *oracleManager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns the conjunction of fs (True for no operands).
func (m *oracleManager) And(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.ITE(r, f, False)
		if r == False {
			return False
		}
	}
	return r
}

// Or returns the disjunction of fs (False for no operands).
func (m *oracleManager) Or(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.ITE(r, True, f)
		if r == True {
			return True
		}
	}
	return r
}

// Xor returns f ⊕ g.
func (m *oracleManager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns the equivalence f ≡ g.
func (m *oracleManager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// Restrict returns f with variable v fixed to val.
func (m *oracleManager) Restrict(f Ref, v int, val bool) Ref {
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(g Ref) Ref {
		n := m.nodes[g]
		if n.level == terminalLevel || n.level > int32(v) {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		var r Ref
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

// Exists existentially quantifies variable v out of f.
func (m *oracleManager) Exists(f Ref, v int) Ref {
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// FromTruth builds the function whose value for the input pattern i (bit j
// of i being the value of vars[j]) is bit i of tt. len(vars) must be ≤ 16;
// wider calls record an error on the manager and return False.
func (m *oracleManager) FromTruth(tt uint64, vars []int) Ref {
	if len(vars) > 16 {
		m.fail(fmt.Errorf("bdd: FromTruth with %d variables (max 16): %w", len(vars), rterr.ErrInternal))
		return False
	}
	var rec func(prefix, depth int) Ref
	rec = func(prefix, depth int) Ref {
		if depth == len(vars) {
			if tt>>prefix&1 == 1 {
				return True
			}
			return False
		}
		lo := rec(prefix, depth+1)
		hi := rec(prefix|1<<depth, depth+1)
		return m.ITE(m.Var(vars[depth]), hi, lo)
	}
	return rec(0, 0)
}

// Eval evaluates f under the given assignment.
func (m *oracleManager) Eval(f Ref, assign func(v int) bool) bool {
	for {
		n := m.nodes[f]
		if n.level == terminalLevel {
			return f == True
		}
		if assign(int(n.level)) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
}

// Sat reports whether f is satisfiable.
func (m *oracleManager) Sat(f Ref) bool { return f != False }

// MinAssignment returns a satisfying assignment of f that fixes as few
// variables as possible; variables absent from the map are don't-cares.
// ok is false iff f is unsatisfiable.
//
// It finds a root-to-True path with the minimum number of decision nodes by
// dynamic programming over the (acyclic) node graph, which is exactly the
// "select as many don't cares as possible" backward-justification policy of
// paper §5.2.
func (m *oracleManager) MinAssignment(f Ref) (assign map[int]bool, ok bool) {
	if f == False || m.err != nil {
		return nil, false
	}
	const inf = math.MaxInt32
	cost := map[Ref]int32{True: 0, False: inf}
	var measure func(Ref) int32
	measure = func(g Ref) int32 {
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
	for f != True {
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

// Support returns the sorted set of variables f depends on.
func (m *oracleManager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	vars := make(map[int]bool)
	var walk func(Ref)
	walk = func(g Ref) {
		if seen[g] {
			return
		}
		seen[g] = true
		n := m.nodes[g]
		if n.level == terminalLevel {
			return
		}
		vars[int(n.level)] = true
		walk(n.lo)
		walk(n.hi)
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
