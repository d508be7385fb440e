// Package bdd implements reduced ordered binary decision diagrams.
//
// It is the substrate for equivalent-reset-state computation (paper §5.2,
// "This operation has been implemented using BDDs"): local and global
// backward justification build the characteristic function of the required
// gate behaviour and extract a satisfying assignment with as many don't-care
// variables as possible (AppendMinAssignment finds a shortest root-to-True
// path, leaving every variable off the path unassigned).
//
// The manager follows the unique-table plus computed-table layout of Brace,
// Rudell and Bryant ("Efficient Implementation of a BDD Package", DAC 1990),
// on flat slices: nodes live in one slice and a Ref is their index; the
// unique table chains Refs through the nodes themselves; ITE results are
// memoised in a direct-mapped computed table whose entries may be
// overwritten (a lost entry only costs a recompute, hash-consing returns the
// same Ref); and the per-call memos of Restrict, AppendMinAssignment and
// Support are Ref-indexed scratch arrays stamped with an epoch. Reset
// empties a manager in time proportional to the nodes it holds and keeps
// every table, so one manager serves a whole relocation's justifications.
// There are no complement edges and no dynamic reordering.
package bdd

import (
	"fmt"
	"math"
	"slices"

	"mcretiming/internal/rterr"
)

// Ref is a handle to a BDD node owned by a Manager.
type Ref int32

// Terminal nodes, valid in every Manager.
const (
	False Ref = 0
	True  Ref = 1
)

// terminalLevel orders terminals below every variable.
const terminalLevel int32 = math.MaxInt32

// minTable is the initial size of the unique and computed tables.
const minTable = 1 << 8

type node struct {
	level  int32 // variable index; terminalLevel for terminals
	lo, hi Ref
	next   Ref // next node in the same unique-table chain; False ends it
}

// iteEntry is one computed-table slot: ITE(f, g, h) = r, valid while gen is
// the manager's current generation.
type iteEntry struct {
	f, g, h, r Ref
	gen        uint32
}

// Literal is one variable fixed by an assignment.
type Literal struct {
	Var int
	Val bool
}

// Manager owns BDD nodes. Variables are dense indices 0..n-1 ordered by
// index (no dynamic reordering).
//
// A Manager fails softly instead of crashing: misuse (a negative variable,
// a too-wide truth table) or blowing through MaxNodes records an error and
// makes subsequent constructions collapse to False. Callers must check Err
// before trusting any result built since the last check; the justification
// engine treats a failed manager as "this system is beyond the budget" and
// climbs its degradation ladder.
type Manager struct {
	nodes   []node
	buckets []Ref      // unique-table chain heads; len is a power of two
	cache   []iteEntry // computed table; same length as buckets
	shift   uint8      // 64 - log2(len(buckets))
	gen     uint32     // computed-table generation, bumped by Reset
	nvars   int

	// Ref-indexed scratch for Restrict (memo), AppendMinAssignment (cost)
	// and Support; an entry is valid when its mark equals epoch.
	mark  []uint32
	memo  []Ref
	cost  []int32
	epoch uint32

	// MaxNodes caps the live node count; 0 means unlimited. Once exceeded,
	// the manager records a budget error and stops growing.
	MaxNodes int
	err      error
}

// New returns an empty manager with the two terminal nodes.
func New() *Manager {
	m := &Manager{
		nodes:   make([]node, 2, minTable),
		buckets: make([]Ref, minTable),
		cache:   make([]iteEntry, minTable),
		gen:     1,
	}
	m.nodes[False] = node{level: terminalLevel}
	m.nodes[True] = node{level: terminalLevel}
	m.shift = uint8(64 - log2(minTable))
	return m
}

// Reset returns m to the state New leaves it in — no variables, no error,
// unlimited MaxNodes — while keeping its storage. It costs time proportional
// to the nodes m held, not to the size its tables grew to.
func (m *Manager) Reset() {
	for _, n := range m.nodes[2:] {
		m.buckets[m.slot(n.level, n.lo, n.hi)] = False
	}
	m.nodes = m.nodes[:2]
	m.gen++
	if m.gen == 0 {
		clear(m.cache)
		m.gen = 1
	}
	m.nvars = 0
	m.MaxNodes = 0
	m.err = nil
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// slot hashes a node triple (or an ITE triple) into the tables.
func (m *Manager) slot(a int32, b, c Ref) int {
	h := uint64(uint32(a))*0x9E3779B97F4A7C15 + uint64(uint32(b))*0xC2B2AE3D27D4EB4F + uint64(uint32(c))*0x165667B19E3779F9
	return int(h >> m.shift)
}

// grow doubles both tables, rechaining every node and keeping the current
// generation's computed entries that still fit.
func (m *Manager) grow() {
	size := 2 * len(m.buckets)
	m.shift--
	m.buckets = make([]Ref, size)
	for i := 2; i < len(m.nodes); i++ {
		n := &m.nodes[i]
		s := m.slot(n.level, n.lo, n.hi)
		n.next = m.buckets[s]
		m.buckets[s] = Ref(i)
	}
	old := m.cache
	m.cache = make([]iteEntry, size)
	for _, e := range old {
		if e.gen == m.gen {
			m.cache[m.slot(int32(e.f), e.g, e.h)] = e
		}
	}
}

// NumNodes returns the number of live nodes including terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Err returns the first failure recorded by the manager (nil when healthy):
// a budget overrun wrapping rterr.ErrBudgetExceeded, or misuse wrapping
// rterr.ErrInternal. Results constructed after the first failure are
// unreliable and must be discarded.
func (m *Manager) Err() error { return m.err }

// fail records the manager's first error.
func (m *Manager) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// NumVars returns the highest variable index ever used plus one.
func (m *Manager) NumVars() int { return m.nvars }

// mk returns the canonical node for (level, lo, hi).
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	s := m.slot(level, lo, hi)
	for r := m.buckets[s]; r != False; r = m.nodes[r].next {
		if n := &m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return r
		}
	}
	if m.MaxNodes > 0 && len(m.nodes) >= m.MaxNodes {
		m.fail(fmt.Errorf("bdd: node budget %d exceeded: %w", m.MaxNodes, rterr.ErrBudgetExceeded))
		return False
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi, next: m.buckets[s]})
	m.buckets[s] = r
	if len(m.nodes) > len(m.buckets) {
		m.grow()
	}
	return r
}

// Var returns the function of variable v.
func (m *Manager) Var(v int) Ref {
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
func (m *Manager) NVar(v int) Ref {
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
func (m *Manager) Lit(v int, val bool) Ref {
	if val {
		return m.Var(v)
	}
	return m.NVar(v)
}

func (m *Manager) level(f Ref) int32 { return m.nodes[f].level }

// ITE computes if-then-else(f, g, h) = f·g + f̄·h.
func (m *Manager) ITE(f, g, h Ref) Ref {
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
	if e := &m.cache[m.slot(int32(f), g, h)]; e.gen == m.gen && e.f == f && e.g == g && e.h == h {
		return e.r
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
	// The recursion may have grown the table: hash again.
	m.cache[m.slot(int32(f), g, h)] = iteEntry{f: f, g: g, h: h, r: r, gen: m.gen}
	return r
}

// cofactors returns the negative and positive cofactors of f w.r.t. the
// variable at the given level.
func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := &m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns the conjunction of fs (True for no operands).
func (m *Manager) And(fs ...Ref) Ref {
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
func (m *Manager) Or(fs ...Ref) Ref {
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
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns the equivalence f ≡ g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// newEpoch sizes the Ref-indexed scratch to the current node count and
// returns a fresh stamp, so every scratch entry reads as unset.
func (m *Manager) newEpoch() uint32 {
	if n := len(m.nodes); len(m.mark) < n {
		size := max(n, 2*len(m.mark))
		m.mark = make([]uint32, size)
		m.memo = make([]Ref, size)
		m.cost = make([]int32, size)
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.mark)
		m.epoch = 1
	}
	return m.epoch
}

// Restrict returns f with variable v fixed to val.
func (m *Manager) Restrict(f Ref, v int, val bool) Ref {
	return m.restrict(f, int32(v), val, m.newEpoch())
}

// restrict memoises on the nodes below f, which all predate ep: the nodes
// it creates are results, never arguments.
func (m *Manager) restrict(g Ref, v int32, val bool, ep uint32) Ref {
	n := m.nodes[g]
	if n.level == terminalLevel || n.level > v {
		return g
	}
	if m.mark[g] == ep {
		return m.memo[g]
	}
	var r Ref
	if n.level == v {
		if val {
			r = n.hi
		} else {
			r = n.lo
		}
	} else {
		r = m.mk(n.level, m.restrict(n.lo, v, val, ep), m.restrict(n.hi, v, val, ep))
	}
	m.mark[g], m.memo[g] = ep, r
	return r
}

// Exists existentially quantifies variable v out of f.
func (m *Manager) Exists(f Ref, v int) Ref {
	return m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
}

// FromTruth builds the function whose value for the input pattern i (bit j
// of i being the value of vars[j]) is bit i of tt. len(vars) must be ≤ 16;
// wider calls record an error on the manager and return False.
func (m *Manager) FromTruth(tt uint64, vars []int) Ref {
	if len(vars) > 16 {
		m.fail(fmt.Errorf("bdd: FromTruth with %d variables (max 16): %w", len(vars), rterr.ErrInternal))
		return False
	}
	return m.fromTruth(tt, vars, 0, 0)
}

func (m *Manager) fromTruth(tt uint64, vars []int, prefix, depth int) Ref {
	if depth == len(vars) {
		if tt>>prefix&1 == 1 {
			return True
		}
		return False
	}
	lo := m.fromTruth(tt, vars, prefix, depth+1)
	hi := m.fromTruth(tt, vars, prefix|1<<depth, depth+1)
	return m.ITE(m.Var(vars[depth]), hi, lo)
}

// Eval evaluates f under the given assignment.
func (m *Manager) Eval(f Ref, assign func(v int) bool) bool {
	for {
		n := &m.nodes[f]
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
func (m *Manager) Sat(f Ref) bool { return f != False }

// unsatCost is the path cost of False in AppendMinAssignment.
const unsatCost = math.MaxInt32

// AppendMinAssignment appends to dst a satisfying assignment of f that
// fixes as few variables as possible, one Literal per fixed variable in
// root-to-leaf order; variables it leaves out are don't-cares. ok is false
// iff f is unsatisfiable or the manager has failed.
//
// It finds a root-to-True path with the minimum number of decision nodes by
// dynamic programming over the (acyclic) node graph, which is exactly the
// "select as many don't cares as possible" backward-justification policy of
// paper §5.2. Ties go to the low branch.
func (m *Manager) AppendMinAssignment(dst []Literal, f Ref) (assign []Literal, ok bool) {
	if f == False || m.err != nil {
		return dst, false
	}
	ep := m.newEpoch()
	if m.measure(f, ep) == unsatCost {
		return dst, false
	}
	for f != True {
		n := &m.nodes[f]
		if m.pathCost(n.lo) <= m.pathCost(n.hi) {
			dst = append(dst, Literal{Var: int(n.level), Val: false})
			f = n.lo
		} else {
			dst = append(dst, Literal{Var: int(n.level), Val: true})
			f = n.hi
		}
	}
	return dst, true
}

// measure computes the fewest decision nodes on a path from g to True.
func (m *Manager) measure(g Ref, ep uint32) int32 {
	switch {
	case g == True:
		return 0
	case g == False:
		return unsatCost
	case m.mark[g] == ep:
		return m.cost[g]
	}
	n := m.nodes[g]
	c := m.measure(n.lo, ep)
	if h := m.measure(n.hi, ep); h < c {
		c = h
	}
	if c < unsatCost {
		c++
	}
	m.mark[g], m.cost[g] = ep, c
	return c
}

// pathCost reads a cost measure already stored for g.
func (m *Manager) pathCost(g Ref) int32 {
	switch g {
	case True:
		return 0
	case False:
		return unsatCost
	}
	return m.cost[g]
}

// Support returns the sorted set of variables f depends on.
func (m *Manager) Support(f Ref) []int {
	out := m.appendLevels(make([]int, 0, 8), f, m.newEpoch())
	slices.Sort(out)
	return slices.Compact(out)
}

// appendLevels appends the variable of every node below g not yet stamped
// with ep.
func (m *Manager) appendLevels(dst []int, g Ref, ep uint32) []int {
	n := m.nodes[g]
	if n.level == terminalLevel || m.mark[g] == ep {
		return dst
	}
	m.mark[g] = ep
	dst = append(dst, int(n.level))
	dst = m.appendLevels(dst, n.lo, ep)
	return m.appendLevels(dst, n.hi, ep)
}
