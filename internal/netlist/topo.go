package netlist

import "fmt"

// Fanouts indexes, for every signal, the gates and registers that read it.
// It is a snapshot: structural edits invalidate it.
type Fanouts struct {
	// GateReaders[sig] lists gates with sig among their inputs.
	GateReaders [][]GateID
	// RegD[sig] lists registers whose D pin reads sig.
	RegD [][]RegID
	// RegCtrl[sig] lists registers with sig on a control pin (clk/EN/SR/AR).
	RegCtrl [][]RegID
	// IsPO[sig] reports whether sig is a primary output.
	IsPO []bool
}

// BuildFanouts computes the fanout index of the circuit.
func (c *Circuit) BuildFanouts() *Fanouts {
	n := len(c.Signals)
	f := &Fanouts{
		GateReaders: make([][]GateID, n),
		RegD:        make([][]RegID, n),
		RegCtrl:     make([][]RegID, n),
		IsPO:        make([]bool, n),
	}
	c.LiveGates(func(g *Gate) {
		for _, in := range g.In {
			f.GateReaders[in] = append(f.GateReaders[in], g.ID)
		}
	})
	c.LiveRegs(func(r *Reg) {
		f.RegD[r.D] = append(f.RegD[r.D], r.ID)
		for _, ctl := range []SignalID{r.Clk, r.EN, r.SR, r.AR} {
			if ctl != NoSignal {
				f.RegCtrl[ctl] = append(f.RegCtrl[ctl], r.ID)
			}
		}
	})
	for _, po := range c.POs {
		f.IsPO[po] = true
	}
	return f
}

// TopoGates returns the live gates in a topological order of the
// combinational logic: every gate appears after the drivers of its inputs.
// Register Q outputs and primary inputs are sources. It returns an error if
// the combinational logic contains a cycle.
//
// The order is Kahn's with a LIFO ready stack: ready gates start in ID
// order, and emitting a gate readies its readers in ID order.
func (c *Circuit) TopoGates() ([]GateID, error) {
	n := len(c.Gates)
	// indeg counts, per gate, how many of its inputs are driven by
	// not-yet-emitted gates. The readers of driver gate d are
	// readers[off[d]:off[d+1]] (compressed rows): counted into off[d+2],
	// summed, then filled by advancing off[d+1] from d's start to its end.
	indeg := make([]int32, n)
	off := make([]int32, n+2)
	live := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Dead {
			continue
		}
		live++
		for _, in := range g.In {
			if d := c.Signals[in].Driver; d.Kind == DriverGate && !c.Gates[d.Gate].Dead {
				indeg[i]++
				off[d.Gate+2]++
			}
		}
	}
	for d := 2; d < len(off); d++ {
		off[d] += off[d-1]
	}
	readers := make([]GateID, off[n+1])
	var ready []GateID
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Dead {
			continue
		}
		for _, in := range g.In {
			if d := c.Signals[in].Driver; d.Kind == DriverGate && !c.Gates[d.Gate].Dead {
				readers[off[d.Gate+1]] = GateID(i)
				off[d.Gate+1]++
			}
		}
		if indeg[i] == 0 {
			ready = append(ready, GateID(i))
		}
	}
	order := make([]GateID, 0, live)
	for len(ready) > 0 {
		g := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, g)
		for _, r := range readers[off[g]:off[g+1]] {
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
