package netlist

import (
	"fmt"
	"reflect"
	"testing"
)

// topoGatesOracle is TopoGates as it was before the flat reader lists: maps
// keyed by gate ID. FuzzTopoGates holds TopoGates to its order and errors.
func (c *Circuit) topoGatesOracle() ([]GateID, error) {
	// indeg counts, per gate, how many of its inputs are driven by
	// not-yet-emitted gates.
	indeg := make(map[GateID]int)
	readers := make(map[GateID][]GateID) // driver gate -> reader gates
	var ready []GateID
	live := 0
	c.LiveGates(func(g *Gate) {
		live++
		n := 0
		for _, in := range g.In {
			d := c.Signals[in].Driver
			if d.Kind == DriverGate && !c.Gates[d.Gate].Dead {
				n++
				readers[d.Gate] = append(readers[d.Gate], g.ID)
			}
		}
		indeg[g.ID] = n
		if n == 0 {
			ready = append(ready, g.ID)
		}
	})
	order := make([]GateID, 0, live)
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, g)
		for _, r := range readers[g] {
			indeg[r]--
			if indeg[r] == 0 {
				ready = append(ready, r)
			}
		}
	}
	if len(order) != live {
		return nil, fmt.Errorf("netlist %q: combinational cycle among %d gates", c.Name, live-len(order))
	}
	return order, nil
}

// fuzzCircuit builds a circuit from data: primary inputs, gates of every
// type reading any signal, registers, then tombstones — some through
// RemoveGate/RemoveReg, some gates only marked Dead so their output still
// names them as driver. With cyclic set, gates may read any gate's output;
// otherwise only outputs of gates earlier in a random rank order, which
// keeps the logic acyclic without making ID order topological.
func fuzzCircuit(data []byte) *Circuit {
	pos := 0
	next := func(k int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % k
	}
	c := New("fuzz")
	cyclic := next(2) == 1
	nPI, nGates, nRegs := 1+next(4), next(48), next(8)
	var sigs []SignalID
	for i := 0; i < nPI; i++ {
		sigs = append(sigs, c.AddInput(""))
	}
	outs := make([]SignalID, nGates)
	rank := make([]int, nGates)
	for i := range outs {
		outs[i] = c.AddSignal("")
		rank[i] = next(256)
	}
	qs := make([]SignalID, nRegs)
	for i := range qs {
		qs[i] = c.AddSignal("")
	}
	sigs = append(sigs, qs...)
	for i := 0; i < nGates; i++ {
		in := make([]SignalID, next(5))
		for k := range in {
			j := next(len(sigs) + nGates)
			switch {
			case j < len(sigs):
				in[k] = sigs[j]
			case cyclic || rank[j-len(sigs)] < rank[i]:
				in[k] = outs[j-len(sigs)]
			default:
				in[k] = sigs[0]
			}
		}
		c.AddGateTo("", GateType(next(int(numGateTypes))), in, outs[i], 0)
	}
	for i := 0; i < nRegs; i++ {
		d := sigs[next(len(sigs))]
		if nGates > 0 && next(2) == 0 {
			d = outs[next(nGates)]
		}
		c.AddRegTo("", d, qs[i], sigs[0])
	}
	for i := 0; i < nGates; i++ {
		switch next(8) {
		case 0:
			c.RemoveGate(GateID(i))
		case 1:
			c.Gates[i].Dead = true
		}
	}
	for i := 0; i < nRegs; i++ {
		if next(4) == 0 {
			c.RemoveReg(RegID(i))
		}
	}
	return c
}

// FuzzTopoGates holds TopoGates to the map-based oracle: the same order, or
// the same cycle error, on random circuits with tombstones and cycles. It
// also requires GatesInTopoOrder to hold only on acyclic circuits.
func FuzzTopoGates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 12, 3, 7, 1, 200, 3, 4, 5, 9, 2, 7, 8, 1, 0, 3, 1})
	f.Add([]byte{1, 3, 30, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 4, 9, 3, 8, 4, 22, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCircuit(data)
		got, err := c.TopoGates()
		want, werr := c.topoGatesOracle()
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("error %v, oracle says %v", err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v, oracle says %v", got, want)
		}
		if c.GatesInTopoOrder() && werr != nil {
			t.Fatalf("GatesInTopoOrder holds on a circuit the oracle finds cyclic: %v", werr)
		}
	})
}

// TestValidateArity pins Validate's verdict on every gate type one input
// below, at, and one above each end of its allowed arity, and on unknown
// types.
func TestValidateArity(t *testing.T) {
	arity := map[GateType][2]int{
		Buf: {1, 1}, Not: {1, 1}, Mux: {3, 3}, Carry: {3, 3},
		Const0: {0, 0}, Const1: {0, 0},
		And: {1, 64}, Or: {1, 64}, Nand: {1, 64}, Nor: {1, 64},
		Xor: {1, 64}, Xnor: {1, 64}, Lut: {0, MaxLutInputs},
	}
	validate := func(typ GateType, n int) error {
		c := New("arity")
		a := c.AddInput("a")
		in := make([]SignalID, n)
		for i := range in {
			in[i] = a
		}
		c.AddGate("g", typ, in, 0)
		return c.Validate()
	}
	for typ := GateType(0); typ < numGateTypes; typ++ {
		w, ok := arity[typ]
		if !ok {
			t.Fatalf("no arity for %s", typ)
		}
		for _, n := range []int{w[0] - 1, w[0], w[0] + 1, w[1] - 1, w[1], w[1] + 1} {
			if n < 0 {
				continue
			}
			err := validate(typ, n)
			if n >= w[0] && n <= w[1] {
				if err != nil {
					t.Errorf("%s with %d inputs: %v", typ, n, err)
				}
				continue
			}
			want := fmt.Sprintf("gate g: %s with %d inputs", typ, n)
			if err == nil || err.Error() != want {
				t.Errorf("%s with %d inputs: error %v, want %q", typ, n, err, want)
			}
		}
	}
	for _, typ := range []GateType{numGateTypes, 255} {
		want := fmt.Sprintf("gate g: unknown type %d", typ)
		if err := validate(typ, 1); err == nil || err.Error() != want {
			t.Errorf("type %d: error %v, want %q", typ, err, want)
		}
	}
}
