package netlist

import (
	"errors"
	"fmt"
)

// gateArity holds the fewest and most inputs of each gate type.
var gateArity = [numGateTypes][2]int{
	Buf: {1, 1}, Not: {1, 1}, Mux: {3, 3}, Carry: {3, 3},
	Const0: {0, 0}, Const1: {0, 0},
	And: {1, 64}, Or: {1, 64}, Nand: {1, 64}, Nor: {1, 64},
	Xor: {1, 64}, Xnor: {1, 64}, Lut: {0, MaxLutInputs},
}

// Validate checks structural sanity of the circuit:
//
//   - every signal ID referenced by gates, registers and ports is in range,
//   - driver bookkeeping is consistent (each signal's Driver matches the
//     gate/register that claims to drive it, and nothing else does),
//   - gate arities match their types and LUT widths are within range,
//   - registers have a clock and their optional pins are in range,
//   - primary outputs are driven,
//   - the combinational logic is acyclic.
//
// It returns all problems found joined into one error, or nil.
func (c *Circuit) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	inRange := func(sig SignalID) bool {
		return sig >= 0 && int(sig) < len(c.Signals)
	}

	// Recompute drivers from scratch and compare.
	type drv struct {
		d Driver
		n int
	}
	seen := make([]drv, len(c.Signals))
	c.LiveGates(func(g *Gate) {
		if !inRange(g.Out) {
			bad("gate %s: output signal %d out of range", g.Name, g.Out)
			return
		}
		seen[g.Out].d = Driver{Kind: DriverGate, Gate: g.ID}
		seen[g.Out].n++
		for i, in := range g.In {
			if !inRange(in) {
				bad("gate %s: input %d signal %d out of range", g.Name, i, in)
			}
		}
		if g.Type < numGateTypes {
			if w := gateArity[g.Type]; len(g.In) < w[0] || len(g.In) > w[1] {
				bad("gate %s: %s with %d inputs", g.Name, g.Type, len(g.In))
			}
		} else {
			bad("gate %s: unknown type %d", g.Name, g.Type)
		}
		if g.Delay < 0 {
			bad("gate %s: negative delay %d", g.Name, g.Delay)
		}
	})
	c.LiveRegs(func(r *Reg) {
		for _, p := range []struct {
			sig      SignalID
			name     string
			optional bool
		}{
			{r.D, "D", false}, {r.Q, "Q", false}, {r.Clk, "clk", false},
			{r.EN, "EN", true}, {r.SR, "SR", true}, {r.AR, "AR", true},
		} {
			if p.sig == NoSignal {
				if !p.optional {
					bad("reg %s: pin %s unconnected", r.Name, p.name)
				}
				continue
			}
			if !inRange(p.sig) {
				bad("reg %s: pin %s signal %d out of range", r.Name, p.name, p.sig)
			}
		}
		if inRange(r.Q) {
			seen[r.Q].d = Driver{Kind: DriverReg, Reg: r.ID}
			seen[r.Q].n++
		}
	})
	for _, pi := range c.PIs {
		if !inRange(pi) {
			bad("primary input signal %d out of range", pi)
			continue
		}
		seen[pi].d = Driver{Kind: DriverInput}
		seen[pi].n++
	}
	for i := range c.Signals {
		s := &c.Signals[i]
		if seen[i].n > 1 {
			bad("signal %s: %d drivers", s.Name, seen[i].n)
		}
		if seen[i].n == 1 && seen[i].d != s.Driver {
			bad("signal %s: driver bookkeeping mismatch (have kind %d, want kind %d)",
				s.Name, s.Driver.Kind, seen[i].d.Kind)
		}
		if seen[i].n == 0 && s.Driver.Kind != DriverNone {
			bad("signal %s: records a driver but nothing drives it", s.Name)
		}
	}
	for _, po := range c.POs {
		if !inRange(po) {
			bad("primary output signal %d out of range", po)
			continue
		}
		if c.Signals[po].Driver.Kind == DriverNone {
			bad("primary output %s is undriven", c.Signals[po].Name)
		}
	}
	// Every consumed signal must have a driver.
	undriven := func(sig SignalID) bool {
		return sig != NoSignal && inRange(sig) && c.Signals[sig].Driver.Kind == DriverNone
	}
	c.LiveGates(func(g *Gate) {
		for i, in := range g.In {
			if undriven(in) {
				bad("gate %s: input %d (%s) is undriven", g.Name, i, c.SignalName(in))
			}
		}
	})
	c.LiveRegs(func(r *Reg) {
		for _, p := range []struct {
			sig  SignalID
			name string
		}{{r.D, "D"}, {r.Clk, "clk"}, {r.EN, "EN"}, {r.SR, "SR"}, {r.AR, "AR"}} {
			if undriven(p.sig) {
				bad("reg %s: pin %s (%s) is undriven", r.Name, p.name, c.SignalName(p.sig))
			}
		}
	})
	if !c.GatesInTopoOrder() {
		if _, err := c.TopoGates(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
