package verify

import (
	"strings"
	"testing"

	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
)

// twin builds two copies of a 1-register inverting pipeline; mutate lets a
// test corrupt the second copy.
func twin(t *testing.T, mutate func(*netlist.Circuit)) (*netlist.Circuit, *netlist.Circuit) {
	t.Helper()
	build := func(name string) *netlist.Circuit {
		c := netlist.New(name)
		a := c.AddInput("a")
		clk := c.AddInput("clk")
		_, x := c.AddGate("g1", netlist.Not, []netlist.SignalID{a}, 10)
		_, q := c.AddReg("r", x, clk)
		_, y := c.AddGate("g2", netlist.Not, []netlist.SignalID{q}, 10)
		c.MarkOutput(y)
		return c
	}
	a, b := build("orig"), build("mut")
	if mutate != nil {
		mutate(b)
	}
	return a, b
}

func TestEquivalentAccepts(t *testing.T) {
	a, b := twin(t, nil)
	res, err := Equivalent(a, b, Stimulus{Seed: 1, Skip: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compared == 0 {
		t.Error("no comparisons made")
	}
}

func TestEquivalentCatchesFunctionalBug(t *testing.T) {
	a, b := twin(t, func(c *netlist.Circuit) {
		c.Gates[1].Type = netlist.Buf // second inverter becomes a buffer
	})
	if _, err := Equivalent(a, b, Stimulus{Seed: 1, Skip: 2}); err == nil {
		t.Fatal("mutated circuit accepted")
	}
}

func TestEquivalentCatchesLatencyBug(t *testing.T) {
	a, b := twin(t, func(c *netlist.Circuit) {
		// An extra register on the output path changes latency.
		po := c.POs[0]
		clk := c.PIs[1]
		_, q := c.AddReg("extra", po, clk)
		c.POs[0] = q
	})
	if _, err := Equivalent(a, b, Stimulus{Seed: 1, Skip: 3}); err == nil {
		t.Fatal("latency-shifted circuit accepted")
	}
}

func TestInputNameMismatchReported(t *testing.T) {
	a, b := twin(t, nil)
	b.Signals[b.PIs[0]].Name = "renamed"
	_, err := Equivalent(a, b, Stimulus{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want missing-input error", err)
	}
}

func TestOutputCountMismatchReported(t *testing.T) {
	a, b := twin(t, func(c *netlist.Circuit) {
		c.MarkOutput(c.POs[0])
	})
	if _, err := Equivalent(a, b, Stimulus{Seed: 1}); err == nil {
		t.Fatal("output-count mismatch accepted")
	}
}

func TestResetPulseDrivesInput(t *testing.T) {
	// A circuit whose output equals the reset input: with ResetPulse the
	// first two cycles must read 1, later cycles 0.
	c := netlist.New("rp")
	rst := c.AddInput("rst")
	c.MarkOutput(rst)
	res, err := Equivalent(c, c.Clone(), Stimulus{
		Seed: 1, Cycles: 8, Seqs: 1, ResetPulse: []string{"rst"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compared != 8 {
		t.Errorf("compared = %d, want 8", res.Compared)
	}
}

// TestEquivalentCountsNewX: a toggle register that a reset pulse initializes
// in the first circuit but not in the second stays X there forever. No known
// sample disagrees, so the run passes, and NewX counts every sample from the
// first clock edge on.
func TestEquivalentCountsNewX(t *testing.T) {
	build := func(name string, reset bool) *netlist.Circuit {
		c := netlist.New(name)
		clk := c.AddInput("clk")
		rst := c.AddInput("rst")
		d := c.AddSignal("d")
		r, q := c.AddReg("r", d, clk)
		if reset {
			c.Regs[r].SR = rst
			c.Regs[r].SRVal = logic.B0
		}
		c.AddGateTo("inv", netlist.Not, []netlist.SignalID{q}, d, 10)
		c.MarkOutput(q)
		return c
	}
	st := Stimulus{Cycles: 10, Seqs: 3, Seed: 1, ResetPulse: []string{"rst"}}
	res, err := Equivalent(build("reset", true), build("noreset", false), st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compared != 0 || res.NewX != 3*9 {
		t.Fatalf("compared %d, new X %d; want 0 and %d", res.Compared, res.NewX, 3*9)
	}
	res, err = Equivalent(build("reset", true), build("reset2", true), st)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewX != 0 || res.Compared != 3*9 {
		t.Fatalf("identical circuits: compared %d, new X %d; want %d and 0", res.Compared, res.NewX, 3*9)
	}
}
