package blif

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mcretiming/internal/gen"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/verify"
	"mcretiming/internal/xc4000"
)

const sampleBlif = `# a comment
.model toy
.inputs a b clk
.outputs y
.latch n1 q re clk 0
.names a b n1
11 1
.names q a y
10 1
01 1
.end
`

func TestReadSample(t *testing.T) {
	c, err := Read(strings.NewReader(sampleBlif))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "toy" {
		t.Errorf("name = %q", c.Name)
	}
	if len(c.PIs) != 3 || len(c.POs) != 1 {
		t.Errorf("ports: %d in %d out", len(c.PIs), len(c.POs))
	}
	if c.NumRegs() != 1 || c.NumLUTs() != 2 {
		t.Errorf("counts: %d regs %d luts", c.NumRegs(), c.NumLUTs())
	}
	// AND cover: tt for pattern 11 only.
	var and *netlist.Gate
	c.LiveGates(func(g *netlist.Gate) {
		if c.SignalName(g.Out) == "n1" {
			and = g
		}
	})
	if and == nil || and.TT != 0b1000 {
		t.Fatalf("AND cover parsed wrong: %+v", and)
	}
}

func TestRoundTripPreservesBehaviour(t *testing.T) {
	c, err := Read(strings.NewReader(sampleBlif))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if _, err := verify.Equivalent(c, back, verify.Stimulus{Cycles: 24, Seqs: 4, Skip: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// Generic registers survive the # .mcreg extension round trip.
func TestMcregExtensionRoundTrip(t *testing.T) {
	c := netlist.New("ext")
	d := c.AddInput("d")
	en := c.AddInput("en")
	rst := c.AddInput("rst")
	arst := c.AddInput("arst")
	clk := c.AddInput("clk")
	r, q := c.AddReg("r", d, clk)
	c.Regs[r].EN = en
	c.Regs[r].SR = rst
	c.Regs[r].SRVal = logic.B1
	c.Regs[r].AR = arst
	c.Regs[r].ARVal = logic.B0
	c.MarkOutput(q)

	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# .mcreg") {
		t.Fatalf("no extension emitted:\n%s", buf.String())
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rr := &back.Regs[0]
	if !rr.HasEN() || !rr.HasSR() || !rr.HasAR() {
		t.Fatalf("controls lost: %+v", rr)
	}
	if rr.SRVal != logic.B1 || rr.ARVal != logic.B0 {
		t.Errorf("reset values lost: sr=%v ar=%v", rr.SRVal, rr.ARVal)
	}
	if _, err := verify.Equivalent(c, back, verify.Stimulus{
		Cycles: 32, Seqs: 6, Skip: 2, Seed: 2,
		Bias: map[string]float64{"rst": 0.3, "arst": 0.2, "en": 0.7},
	}); err != nil {
		t.Fatal(err)
	}
}

// Gate delays survive the # .mcdelay extension round trip: zero-delay gates
// emit no line (plain BLIF stays plain), timed gates come back timed, and a
// second write is byte-identical to the first.
func TestMcdelayExtensionRoundTrip(t *testing.T) {
	c := netlist.New("timed")
	a := c.AddInput("a")
	b := c.AddInput("b")
	_, x := c.AddGate("g1", netlist.And, []netlist.SignalID{a, b}, 1_500)
	_, y := c.AddGate("g2", netlist.Xor, []netlist.SignalID{x, a}, 0)
	c.MarkOutput(y)

	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# .mcdelay"); n != 1 {
		t.Fatalf("want exactly one delay line (the zero-delay gate emits none), got %d:\n%s", n, buf.String())
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cNames, backNames := c.UniqueSignalNames(), back.UniqueSignalNames()
	got := make(map[string]int64)
	back.LiveGates(func(g *netlist.Gate) { got[backNames[g.Out]] = g.Delay })
	c.LiveGates(func(g *netlist.Gate) {
		if bg, ok := got[cNames[g.Out]]; !ok || bg != g.Delay {
			t.Errorf("gate %s delay %d -> %d", g.Name, g.Delay, bg)
		}
	})
	var again bytes.Buffer
	if err := Write(&again, back); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatalf("write∘read not idempotent:\n%s\nvs\n%s", again.String(), buf.String())
	}

	// Unparseable delay extensions are comments, not errors.
	lenient := ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n# .mcdelay y notanumber\n.end\n"
	c2, err := Read(strings.NewReader(lenient))
	if err != nil {
		t.Fatalf("malformed .mcdelay comment must be ignored: %v", err)
	}
	c2.LiveGates(func(g *netlist.Gate) {
		if g.Delay != 0 {
			t.Errorf("malformed delay applied: %d", g.Delay)
		}
	})
}

// A mapped generated circuit survives BLIF round trip.
func TestGeneratedCircuitRoundTrip(t *testing.T) {
	rtl, err := gen.Circuit(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := xc4000.Map(xc4000.DecomposeSyncResets(rtl))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRegs() != c.NumRegs() {
		t.Errorf("regs %d -> %d", c.NumRegs(), back.NumRegs())
	}
	if _, err := verify.Equivalent(c, back, verify.Stimulus{
		Cycles: 30, Seqs: 3, Skip: 3, Seed: 3,
		Bias: map[string]float64{"en": 0.7, "arst": 0.2},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetCover(t *testing.T) {
	src := ".model off\n.inputs a b\n.outputs y\n.names a b y\n00 0\n.end\n"
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// Complement of {00}: OR.
	var g *netlist.Gate
	c.LiveGates(func(gg *netlist.Gate) { g = gg })
	if g.TT != 0b1110 {
		t.Errorf("off-set cover tt = %04b, want 1110", g.TT)
	}
}

func TestConstantNames(t *testing.T) {
	src := ".model k\n.inputs a\n.outputs y z w\n.names y\n1\n.names z\n.names a w\n1 1\n.end\n"
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.POs) != 3 {
		t.Fatal("outputs lost")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"width mismatch",
			".model x\n.inputs a\n.outputs y\n.names a y\n1- 1\n.end\n",
			`blif: .names y: row "1- 1": pattern width 2, want 1: malformed input`},
		{"mixed sets",
			".model x\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n",
			"blif: .names y: cover mixes on-set and off-set rows: malformed input"},
		{"undefined output",
			".model x\n.outputs y\n.end\n",
			`blif: output "y" never defined: malformed input`},
		{"stray row",
			".model x\n.inputs a\n.outputs a\nbogus line\n.end\n",
			`blif: line 4: unexpected "bogus": malformed input`},
		// A scanner error anywhere in the input wins over an earlier
		// statement error.
		{"statement error then over-long line",
			".model x\n.inputs a\n.outputs a\nbogus line\n" + strings.Repeat("a", maxLineBytes+1) + "\n.end\n",
			"blif: line longer than 1048576 bytes: malformed input"},
		// A .names wider than MaxLutInputs is rejected by width; its rows are
		// never expanded (30 dashes would be 2^30 minterms).
		{"wide names with dash row",
			".model x\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g y\n" + strings.Repeat("-", 30) + " 1\n.end\n",
			"blif: .names y has 7 inputs (max 6): malformed input"},
	}
	for _, tc := range cases {
		start := time.Now()
		_, err := Read(strings.NewReader(tc.src))
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: took %v", tc.name, took)
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestImplicitClock(t *testing.T) {
	src := ".model ic\n.inputs d\n.outputs q\n.latch d q 0\n.end\n"
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRegs() != 1 {
		t.Fatal("latch lost")
	}
	if c.Regs[0].Clk == netlist.NoSignal {
		t.Error("no implicit clock attached")
	}
}
