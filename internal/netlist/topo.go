package netlist

import "fmt"

// GatesInTopoOrder reports whether ID order is a topological order of the
// live gates: every gate-driven input of a gate is driven by a gate of
// smaller ID. Such a circuit's combinational logic is acyclic. Circuits
// built front to back, as the generators and the mapper build them, are in
// order, which lets a caller that needs any topological order, or only
// acyclicity, skip TopoGates.
func (c *Circuit) GatesInTopoOrder() bool {
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Dead {
			continue
		}
		for _, in := range g.In {
			if d := c.Signals[in].Driver; d.Kind == DriverGate && d.Gate >= GateID(i) {
				return false
			}
		}
	}
	return true
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
