package netlist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mcretiming/internal/logic"
)

func TestAddAndValidate(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	clk := c.AddInput("clk")
	_, and := c.AddGate("u1", And, []SignalID{a, b}, 100)
	_, q := c.AddReg("ff", and, clk)
	c.MarkOutput(q)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.NumGates(); got != 1 {
		t.Errorf("NumGates = %d, want 1", got)
	}
	if got := c.NumRegs(); got != 1 {
		t.Errorf("NumRegs = %d, want 1", got)
	}
}

func TestValidateCatchesDoubleDriver(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	s := c.AddSignal("s")
	c.AddGateTo("g1", Buf, []SignalID{a}, s, 0)
	// Force a second driver onto s.
	c.Gates = append(c.Gates, Gate{ID: GateID(len(c.Gates)), Name: "g2", Type: Buf, In: []SignalID{a}, Out: s})
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a double-driven signal")
	}
}

// TestValidateCatchesCombCycle covers a two-gate loop and a gate reading
// its own output, which a gate-ID order check must not take for sorted.
func TestValidateCatchesCombCycle(t *testing.T) {
	c := New("t")
	s1 := c.AddSignal("s1")
	s2 := c.AddSignal("s2")
	c.AddGateTo("g1", Not, []SignalID{s2}, s1, 0)
	c.AddGateTo("g2", Not, []SignalID{s1}, s2, 0)
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a combinational cycle")
	}

	c = New("self")
	a := c.AddInput("a")
	s := c.AddSignal("s")
	c.AddGateTo("g", And, []SignalID{a, s}, s, 0)
	c.MarkOutput(s)
	if c.GatesInTopoOrder() {
		t.Error("GatesInTopoOrder holds for a gate reading its own output")
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a gate reading its own output")
	}
}

func TestRegisterBreaksCycle(t *testing.T) {
	c := New("t")
	clk := c.AddInput("clk")
	d := c.AddSignal("d")
	_, q := c.AddReg("ff", d, clk)
	c.AddGateTo("inv", Not, []SignalID{q}, d, 50)
	c.MarkOutput(q)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected a registered loop: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	_, x := c.AddGate("g1", Not, []SignalID{a}, 0)
	_, y := c.AddGate("g2", Not, []SignalID{x}, 0)
	_, z := c.AddGate("g3", And, []SignalID{x, y}, 0)
	c.MarkOutput(z)
	order, err := c.TopoGates()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[GateID]int{}
	for i, g := range order {
		pos[g] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("topological order violated: %v", order)
	}
}

func TestRemoveGateDetachesDriver(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	g, out := c.AddGate("g", Buf, []SignalID{a}, 0)
	c.RemoveGate(g)
	if c.Signals[out].Driver.Kind != DriverNone {
		t.Error("removed gate still drives its output")
	}
	if c.NumGates() != 0 {
		t.Error("dead gate counted")
	}
}

func TestConstSignals(t *testing.T) {
	c := New("t")
	one := c.Const(logic.B1)
	zero := c.Const(logic.B0)
	if one2 := c.Const(logic.B1); one2 != one {
		t.Error("Const(B1) not memoized")
	}
	if v, ok := c.IsConst(one); !ok || v != logic.B1 {
		t.Errorf("IsConst(one) = %v,%v", v, ok)
	}
	if v, ok := c.IsConst(zero); !ok || v != logic.B0 {
		t.Errorf("IsConst(zero) = %v,%v", v, ok)
	}
	a := c.AddInput("a")
	if _, ok := c.IsConst(a); ok {
		t.Error("input classified as constant")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g, out := c.AddGate("g", And, []SignalID{a, b}, 10)
	c.MarkOutput(out)
	cp := c.Clone()
	cp.Gates[g].In[0] = b
	if c.Gates[g].In[0] != a {
		t.Error("Clone shares gate input slices")
	}
	cp.AddInput("c")
	if len(c.Signals) == len(cp.Signals) {
		t.Error("Clone shares signal slice growth")
	}
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestGateEvalBasics(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{And, []bool{true, true, true}, true},
		{And, []bool{true, false, true}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nand, []bool{true, true}, false},
		{Nor, []bool{false, false}, true},
		{Xor, []bool{true, true, true}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, false}, false},
		{Not, []bool{false}, true},
		{Buf, []bool{true}, true},
		{Mux, []bool{false, true, false}, true},  // sel=0 -> a
		{Mux, []bool{true, true, false}, false},  // sel=1 -> b
		{Carry, []bool{true, true, false}, true}, // majority
		{Carry, []bool{true, false, false}, false},
	}
	for _, tc := range cases {
		in := make([]SignalID, len(tc.in))
		g := &Gate{Type: tc.t, In: in}
		if got := g.Eval(tc.in); got != tc.want {
			t.Errorf("%s%v = %v, want %v", tc.t, tc.in, got, tc.want)
		}
	}
}

func TestLutEval(t *testing.T) {
	// 2-input XOR as a LUT: patterns 01 and 10 set -> tt = 0b0110.
	g := &Gate{Type: Lut, In: make([]SignalID, 2), TT: 0b0110}
	for m := 0; m < 4; m++ {
		in := []bool{m&1 == 1, m&2 == 2}
		want := in[0] != in[1]
		if got := g.Eval(in); got != want {
			t.Errorf("lut(%v) = %v, want %v", in, got, want)
		}
	}
}

// Eval3 must agree with Eval on fully-known inputs, and must return a known
// value only when every completion of the X inputs agrees with it.
func TestEval3ConsistentWithEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	types := []GateType{Buf, Not, And, Or, Nand, Nor, Xor, Xnor, Mux, Lut, Carry}
	for iter := 0; iter < 2000; iter++ {
		gt := types[rng.Intn(len(types))]
		n := 0
		switch gt {
		case Buf, Not:
			n = 1
		case Mux, Carry:
			n = 3
		default:
			n = 1 + rng.Intn(4)
		}
		g := &Gate{Type: gt, In: make([]SignalID, n), TT: rng.Uint64()}
		tin := make([]logic.Bit, n)
		for i := range tin {
			tin[i] = logic.Bit(rng.Intn(3))
		}
		got := g.Eval3(tin)

		// Enumerate completions.
		var unknown []int
		bin := make([]bool, n)
		for i, v := range tin {
			if v == logic.BX {
				unknown = append(unknown, i)
			} else {
				bin[i] = v == logic.B1
			}
		}
		first, uniform := false, true
		for m := 0; m < 1<<len(unknown); m++ {
			for j, idx := range unknown {
				bin[idx] = m>>j&1 == 1
			}
			v := g.Eval(bin)
			if m == 0 {
				first = v
			} else if v != first {
				uniform = false
			}
		}
		if uniform {
			if got == logic.BX {
				// Pessimism allowed for non-LUT operators (e.g. XOR of X
				// with X), but never for Lut/Carry which enumerate.
				if gt == Lut || gt == Carry {
					t.Fatalf("%s: Eval3(%v) = X but all completions give %v", gt, tin, first)
				}
			} else if got.Bool() != first {
				t.Fatalf("%s: Eval3(%v) = %v, completions give %v", gt, tin, got, first)
			}
		} else if got != logic.BX {
			t.Fatalf("%s: Eval3(%v) = %v but completions disagree", gt, tin, got)
		}
	}
}

func TestTruthTableMatchesEval(t *testing.T) {
	f := func(tt uint16, a, b, c bool) bool {
		g := &Gate{Type: Lut, In: make([]SignalID, 3), TT: uint64(tt)}
		want, err := g.TruthTable()
		if err != nil {
			return false
		}
		idx := 0
		for i, v := range []bool{a, b, c} {
			if v {
				idx |= 1 << i
			}
		}
		return g.Eval([]bool{a, b, c}) == (want>>idx&1 == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruthTableOfNamedGates(t *testing.T) {
	and2 := &Gate{Type: And, In: make([]SignalID, 2)}
	if tt, err := and2.TruthTable(); err != nil || tt != 0b1000 {
		t.Errorf("and2 TT = %04b (err %v), want 1000", tt, err)
	}
	nor2 := &Gate{Type: Nor, In: make([]SignalID, 2)}
	if tt, err := nor2.TruthTable(); err != nil || tt != 0b0001 {
		t.Errorf("nor2 TT = %04b (err %v), want 0001", tt, err)
	}
}

// Generated names read as the fmt verbs that used to build them.
func TestGeneratedNames(t *testing.T) {
	for _, id := range []int{0, 7, 9, 10, 99, 100, 12345, 1<<31 - 1} {
		for _, p := range []byte("ngr") {
			if got, want := generatedName(p, id), fmt.Sprintf("%c%d", p, id); got != want {
				t.Errorf("generatedName(%c, %d) = %q, want %q", p, id, got, want)
			}
		}
	}
	c := New("names")
	a := c.AddSignal("x")
	c.AddSignal("x")
	c.AddSignal("x__dup1")
	c.AddSignal("")
	c.AddSignal("x")
	got := c.UniqueSignalNames()
	want := []string{"x", "x__dup1", "x__dup1__dup1", "n3", "x__dup2"}
	if a != 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("UniqueSignalNames = %q, want %q", got, want)
	}
	g := c.AddGateTo("", Buf, []SignalID{a}, c.AddSignal(""), 0)
	r := c.AddRegTo("", a, c.AddSignal(""), a)
	if c.Gates[g].Name != "g0" || c.Regs[r].Name != "r0" || c.Signals[5].Name != "n5" {
		t.Errorf("generated names %q %q %q", c.Gates[g].Name, c.Regs[r].Name, c.Signals[5].Name)
	}
}
