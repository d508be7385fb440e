package bdd

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"mcretiming/internal/rterr"
)

// errKind classifies a manager error the way callers match it.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, rterr.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, rterr.ErrInternal):
		return "internal"
	}
	return "other: " + err.Error()
}

// replay runs the program encoded in data on the flat manager and on the
// map-based oracle and fails t at the first difference. Each operation reads
// an opcode byte and its operands; operands index the pool of results built
// so far. Refs are compared until a budget error: from then on both managers
// return unreliable results by contract, and only NumNodes and the error
// kind must still agree.
func replay(t *testing.T, data []byte) {
	m, o := New(), newOracle()
	type pair struct{ m, o Ref }
	pool := []pair{{False, False}, {True, True}}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	pick := func() pair { return pool[next()%len(pool)] }
	var lits []Literal
	for step := 0; pos < len(data); step++ {
		var got pair
		produced := true
		switch op := next() % 13; op {
		case 0:
			v := next()%10 - 1 // -1 is misuse
			got = pair{m.Var(v), o.Var(v)}
		case 1:
			v := next() % 10
			got = pair{m.NVar(v), o.NVar(v)}
		case 2:
			f, g, h := pick(), pick(), pick()
			got = pair{m.ITE(f.m, g.m, h.m), o.ITE(f.o, g.o, h.o)}
		case 3, 4:
			fs := make([]pair, next()%4)
			for i := range fs {
				fs[i] = pick()
			}
			var ms, ors []Ref
			for _, f := range fs {
				ms, ors = append(ms, f.m), append(ors, f.o)
			}
			if op == 3 {
				got = pair{m.And(ms...), o.And(ors...)}
			} else {
				got = pair{m.Or(ms...), o.Or(ors...)}
			}
		case 5:
			f, g := pick(), pick()
			got = pair{m.Xnor(f.m, g.m), o.Xnor(f.o, g.o)}
		case 6:
			f := pick()
			got = pair{m.Not(f.m), o.Not(f.o)}
		case 7:
			f, v, val := pick(), next()%11, next()%2 == 1
			got = pair{m.Restrict(f.m, v, val), o.Restrict(f.o, v, val)}
		case 8:
			f, v := pick(), next()%11
			got = pair{m.Exists(f.m, v), o.Exists(f.o, v)}
		case 9:
			n := next() % 6
			if n == 5 {
				n = 17 // too wide: misuse
			}
			vars := make([]int, n)
			for i := range vars {
				vars[i] = next() % 10
			}
			tt := uint64(next()) | uint64(next())<<8 | uint64(next())<<16 | uint64(next())<<56
			got = pair{m.FromTruth(tt, vars), o.FromTruth(tt, vars)}
		case 10:
			f := pick()
			produced = false
			var ok bool
			lits, ok = m.AppendMinAssignment(lits[:0], f.m)
			want, okO := o.MinAssignment(f.o)
			gotMap := make(map[int]bool, len(lits))
			for _, l := range lits {
				gotMap[l.Var] = l.Val
			}
			if ok != okO || len(gotMap) != len(lits) || !maps.Equal(gotMap, want) {
				t.Fatalf("step %d: AppendMinAssignment = %v, %v; oracle %v, %v", step, lits, ok, want, okO)
			}
		case 11:
			f := pick()
			produced = false
			if got, want := m.Support(f.m), o.Support(f.o); !slices.Equal(got, want) {
				t.Fatalf("step %d: Support = %v, oracle %v", step, got, want)
			}
		case 12:
			produced = false
			budget := next() % 48
			if budget < 8 {
				budget = 0 // unlimited
			}
			m.Reset()
			o = newOracle()
			m.MaxNodes, o.MaxNodes = budget, budget
			pool = pool[:2]
		}
		if m.NumNodes() != o.NumNodes() || m.NumVars() != o.NumVars() {
			t.Fatalf("step %d: NumNodes/NumVars %d/%d, oracle %d/%d", step, m.NumNodes(), m.NumVars(), o.NumNodes(), o.NumVars())
		}
		if ek, ok := errKind(m.Err()), errKind(o.Err()); ek != ok {
			t.Fatalf("step %d: error kind %s, oracle %s", step, ek, ok)
		}
		if !produced {
			continue
		}
		if errKind(m.Err()) != "budget" && got.m != got.o {
			t.Fatalf("step %d: Ref %d, oracle %d", step, got.m, got.o)
		}
		pool = append(pool, got)
	}
}

// FuzzManager holds the flat manager to the map-based oracle on random
// programs over every operation, Reset, and small node budgets.
func FuzzManager(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 2, 2, 3, 10, 4, 11, 4})
	f.Add([]byte{12, 20, 9, 4, 0, 1, 2, 3, 0xaa, 0x55, 0, 0, 10, 2, 7, 2, 3, 1, 8, 3, 0})
	f.Add([]byte{12, 9, 9, 3, 0, 1, 2, 0xff, 0x10, 0x3c, 0x81, 2, 2, 3, 4, 12, 0, 0, 4})
	f.Add([]byte{9, 5, 0, 2, 3, 4, 0, 0x96, 0x69, 0x0f, 0xf0, 10, 2, 9, 4})
	f.Fuzz(replay)
}

// TestManagerMatchesOracle runs seeded random programs through replay, so
// the oracle comparison runs in every test pass, not only under -fuzz.
func TestManagerMatchesOracle(t *testing.T) {
	seed := uint64(1)
	for prog := 0; prog < 300; prog++ {
		data := make([]byte, 64+prog)
		for i := range data {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			data[i] = byte(seed)
		}
		replay(t, data)
	}
}

// TestResetKeepsTablesAndNumbering: after Reset a manager numbers nodes as
// a fresh one does, forgets the budget and the error, and keeps its
// grown tables.
func TestResetKeepsTablesAndNumbering(t *testing.T) {
	m := New()
	m.MaxNodes = 5
	vars := make([]int, 12)
	for i := range vars {
		vars[i] = i
	}
	m.FromTruth(0x6996_9669_6996_9669, vars)
	if !errors.Is(m.Err(), rterr.ErrBudgetExceeded) {
		t.Fatalf("Err = %v, want a budget error", m.Err())
	}
	m.Reset()
	m.FromTruth(0xdead_beef, vars)
	size := len(m.buckets)
	m.Reset()
	if m.Err() != nil || m.MaxNodes != 0 || m.NumNodes() != 2 || m.NumVars() != 0 {
		t.Fatalf("after Reset: err %v, MaxNodes %d, nodes %d, vars %d", m.Err(), m.MaxNodes, m.NumNodes(), m.NumVars())
	}
	if len(m.buckets) != size {
		t.Errorf("Reset shrank the unique table: %d -> %d", size, len(m.buckets))
	}
	o := newOracle()
	if got, want := m.FromTruth(0x1234_5678, vars[:5]), o.FromTruth(0x1234_5678, vars[:5]); got != want || m.NumNodes() != o.NumNodes() {
		t.Errorf("after Reset: Ref %d with %d nodes, fresh oracle %d with %d", got, m.NumNodes(), want, o.NumNodes())
	}
}
