package xc4000_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// checkMapMatchesOracle maps c with Map and with the pre-rewrite mapper and
// fails unless both return the same error text, or circuits with the same
// tables and the same BLIF bytes, and Map left c as it was. It returns
// Map's circuit (nil on error).
func checkMapMatchesOracle(t *testing.T, what string, c *netlist.Circuit) *netlist.Circuit {
	t.Helper()
	before := tables(c)
	got, gotErr := xc4000.Map(c)
	if tables(c) != before {
		t.Fatalf("%s: Map modified its input", what)
	}
	want, wantErr := xc4000.MapOracle(c)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: Map error %q, oracle error %q", what, fmt.Sprint(gotErr), fmt.Sprint(wantErr))
		}
		return nil
	}
	if g, w := tables(got), tables(want); g != w {
		t.Fatalf("%s: Map built\n%s\noracle built\n%s", what, g, w)
	}
	var gb, wb bytes.Buffer
	if err := blif.Write(&gb, got); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := blif.Write(&wb, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: BLIF differs from the oracle's:\n%s\nwant\n%s", what, gb.Bytes(), wb.Bytes())
	}
	return got
}

// tables prints every table of c, gate inputs, delays and truth tables
// included.
func tables(c *netlist.Circuit) string {
	return fmt.Sprintf("%s\nsignals %v\ngates %v\nregs %v\npis %v\npos %v",
		c.Name, c.Signals, c.Gates, c.Regs, c.PIs, c.POs)
}

// TestMapMatchesOracle holds Map to the pre-rewrite mapper on generated
// circuits (first map, remap of the mapping, and remap of a retiming),
// hand-built wide gates, carry chains, muxes, constants and buffer chains,
// duplicated outputs, and the error cases.
func TestMapMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		c := gen.Random(seed, 20+int(seed)%180)
		what := fmt.Sprintf("random seed %d", seed)
		checkMapMatchesOracle(t, what+" raw", c)
		mapped := checkMapMatchesOracle(t, what+" mapped", xc4000.DecomposeSyncResets(c.Clone()))
		checkMapMatchesOracle(t, what+" remapped", mapped)
		if seed%10 == 0 {
			retimed, _, err := core.Retime(mapped, core.Options{Objective: core.MinAreaAtMinPeriod})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkMapMatchesOracle(t, what+" retimed", retimed)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		c := randomNetlist(rand.New(rand.NewSource(seed)), 5+int(seed)%60)
		what := fmt.Sprintf("netlist seed %d", seed)
		if mapped := checkMapMatchesOracle(t, what, c); mapped != nil {
			checkMapMatchesOracle(t, what+" remapped", mapped)
		}
	}
	for name, c := range handBuilt() {
		checkMapMatchesOracle(t, name, c)
	}
}

// FuzzMapMatchesOracle checks Map against the oracle as TestMapMatchesOracle
// does, on netlists of a fuzzer-chosen seed and size.
func FuzzMapMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(42), uint8(60))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		c := randomNetlist(rand.New(rand.NewSource(seed)), 1+int(size)%120)
		if mapped := checkMapMatchesOracle(t, "netlist", c); mapped != nil {
			checkMapMatchesOracle(t, "remapped", mapped)
		}
	})
}

// randomNetlist builds a circuit of n gates of every kind the mapper packs
// or passes through: gates of 1–9 inputs (wide ones are split), muxes, LUTs
// of 0–6 inputs with random tables, carry cells, buffers and constants, read
// from a pool that repeats signals within a gate. Registers get random
// control pins, and outputs may repeat. The result is valid but may be
// unmappable (a LUT wider than MaxLutIn distinct inputs).
func randomNetlist(rng *rand.Rand, n int) *netlist.Circuit {
	c := netlist.New("net")
	clk := c.AddInput("clk")
	pool := []netlist.SignalID{c.AddInput("a"), c.AddInput("b"), c.AddInput("c")}
	pick := func() netlist.SignalID { return pool[rng.Intn(len(pool))] }
	for i := 0; i < n; i++ {
		var o netlist.SignalID
		switch k := rng.Intn(12); k {
		case 0:
			o = c.Const(logic.Bit(rng.Intn(2)))
		case 1, 2:
			_, o = c.AddGate("", netlist.Buf, []netlist.SignalID{pick()}, 0)
		case 3:
			_, o = c.AddGate("", netlist.Not, []netlist.SignalID{pick()}, 1000)
		case 4:
			_, o = c.AddGate("", netlist.Mux, []netlist.SignalID{pick(), pick(), pick()}, 1000)
		case 5:
			_, o = c.AddGate("", netlist.Carry, []netlist.SignalID{pick(), pick(), pick()}, xc4000.DelayCarry)
		case 6:
			w := rng.Intn(5)
			if rng.Intn(8) == 0 {
				w = 5 + rng.Intn(2)
			}
			in := make([]netlist.SignalID, w)
			for j := range in {
				in[j] = pick()
			}
			_, o = c.AddLut("", in, rng.Uint64(), 1000)
		default:
			types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor}
			in := make([]netlist.SignalID, 1+rng.Intn(9))
			for j := range in {
				in[j] = pick()
			}
			_, o = c.AddGate("", types[rng.Intn(len(types))], in, int64(1000*(1+rng.Intn(3))))
		}
		pool = append(pool, o)
		if rng.Intn(4) == 0 {
			rid, q := c.AddReg("", o, clk)
			r := &c.Regs[rid]
			if rng.Intn(2) == 0 {
				r.EN = pick()
			}
			if rng.Intn(3) == 0 {
				r.SR, r.SRVal = pick(), logic.Bit(rng.Intn(3))
			}
			if rng.Intn(4) == 0 {
				r.AR, r.ARVal = pick(), logic.Bit(rng.Intn(3))
			}
			pool = append(pool, q)
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		c.MarkOutput(pool[len(pool)-1-rng.Intn(min(len(pool), 6))])
	}
	return c
}

// handBuilt returns the named corner cases: one wide gate of each
// splittable kind, a carry chain, a mux tree, constants and constant cones,
// buffer chains, duplicated outputs, a combinational loop and a LUT that
// cannot fit.
func handBuilt() map[string]*netlist.Circuit {
	out := map[string]*netlist.Circuit{}
	inputs := func(c *netlist.Circuit, n int) []netlist.SignalID {
		in := make([]netlist.SignalID, n)
		for i := range in {
			in[i] = c.AddInput(fmt.Sprintf("i%d", i))
		}
		return in
	}
	for _, gt := range []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor} {
		for _, w := range []int{5, 8, 13, 17} {
			c := netlist.New("wide")
			_, o := c.AddGate("w", gt, inputs(c, w), 1000)
			_, n := c.AddGate("n", netlist.Not, []netlist.SignalID{o}, 1000)
			c.MarkOutput(n)
			out[fmt.Sprintf("wide %s/%d", gt, w)] = c
		}
	}

	c := netlist.New("carry")
	in := inputs(c, 8)
	ci := c.Const(0)
	for i := 0; i < 4; i++ {
		_, s := c.AddGate(fmt.Sprintf("s%d", i), netlist.Xor, []netlist.SignalID{in[i], in[4+i], ci}, 1000)
		_, ci = c.AddGate(fmt.Sprintf("c%d", i), netlist.Carry, []netlist.SignalID{in[i], in[4+i], ci}, xc4000.DelayCarry)
		c.MarkOutput(s)
	}
	c.MarkOutput(ci)
	out["carry chain"] = c

	c = netlist.New("mux")
	in = inputs(c, 7)
	_, m1 := c.AddGate("m1", netlist.Mux, []netlist.SignalID{in[0], in[1], in[2]}, 1000)
	_, m2 := c.AddGate("m2", netlist.Mux, []netlist.SignalID{in[0], in[3], in[4]}, 1000)
	_, m3 := c.AddGate("m3", netlist.Mux, []netlist.SignalID{in[5], m1, m2}, 1000)
	_, m4 := c.AddGate("m4", netlist.Mux, []netlist.SignalID{in[6], m3, in[1]}, 1000)
	c.MarkOutput(m4)
	out["mux tree"] = c

	c = netlist.New("consts")
	in = inputs(c, 2)
	_, x := c.AddGate("x", netlist.Xor, []netlist.SignalID{in[0], in[0]}, 1000)
	_, nx := c.AddGate("nx", netlist.Not, []netlist.SignalID{in[1]}, 1000)
	_, taut := c.AddGate("taut", netlist.Or, []netlist.SignalID{in[1], nx}, 1000)
	_, k := c.AddGate("k", netlist.And, []netlist.SignalID{in[0], c.Const(1)}, 1000)
	_, l0 := c.AddLut("l0", nil, 1, 1000)
	clk := c.AddInput("clk")
	rid, q := c.AddReg("r", c.Const(0), clk)
	c.Regs[rid].EN = c.Const(1)
	for _, s := range []netlist.SignalID{x, taut, k, l0, q, c.Const(0), c.Const(1)} {
		c.MarkOutput(s)
	}
	out["constants"] = c

	c = netlist.New("bufs")
	in = inputs(c, 2)
	clk = c.AddInput("clk")
	_, q = c.AddReg("r", in[0], clk)
	s := q
	for i := 0; i < 4; i++ {
		_, s = c.AddGate(fmt.Sprintf("b%d", i), netlist.Buf, []netlist.SignalID{s}, 0)
	}
	_, nb := c.AddGate("nb", netlist.Not, []netlist.SignalID{in[1]}, 1000)
	_, bb := c.AddGate("bb", netlist.Buf, []netlist.SignalID{nb}, 0)
	_, and := c.AddGate("and", netlist.And, []netlist.SignalID{bb, s}, 1000)
	_, pib := c.AddGate("pib", netlist.Buf, []netlist.SignalID{in[1]}, 0)
	c.MarkOutput(s)
	c.MarkOutput(and)
	c.MarkOutput(pib)
	c.MarkOutput(in[0])
	out["buffer chains"] = c

	c = netlist.New("dup")
	in = inputs(c, 3)
	_, g1 := c.AddGate("g1", netlist.And, []netlist.SignalID{in[0], in[1]}, 1000)
	_, g2 := c.AddGate("g2", netlist.Or, []netlist.SignalID{g1, in[2]}, 1000)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	c.MarkOutput(g1)
	c.MarkOutput(g2)
	out["duplicated outputs"] = c

	c = netlist.New("loop")
	in = inputs(c, 1)
	loop := c.AddSignal("loop")
	_, g := c.AddGate("g", netlist.And, []netlist.SignalID{in[0], loop}, 1000)
	c.AddGateTo("h", netlist.Not, []netlist.SignalID{g}, loop, 1000)
	c.MarkOutput(g)
	out["combinational loop"] = c

	c = netlist.New("lut6")
	_, o := c.AddLut("l6", inputs(c, 6), 0x8000_0000_0000_0001, 1000)
	c.MarkOutput(o)
	out["6-input LUT"] = c
	return out
}
