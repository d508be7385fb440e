package xc4000

import (
	"fmt"
	"slices"

	"mcretiming/internal/netlist"
)

// MaxLutIn is the LUT width of the XC4000E CLB function generators.
const MaxLutIn = 4

// cone is a candidate LUT: a function over at most MaxLutIn leaf signals.
// Bit m of tt is the output when leaf i carries bit i of m.
type cone struct {
	leaves [MaxLutIn]netlist.SignalID
	n      uint8 // leaves in use
	tt     uint16
	set    bool // false for a signal without a cone
}

// leafCone is the identity function of sig.
func leafCone(sig netlist.SignalID) cone {
	return cone{leaves: [MaxLutIn]netlist.SignalID{sig}, n: 1, tt: 0b10, set: true}
}

// Map technology-maps the combinational logic of c into 4-input LUTs (carry
// cells pass through onto the hardwired chain) and returns a fresh circuit.
// Registers, ports and signal names survive; buffers and constants are
// absorbed where possible.
//
// The mapper is a greedy cone packer: gates are visited in topological
// order; a gate absorbs a fanin gate's cone when the fanin has a single
// reader and the merged support still fits a LUT. It also serves as the
// paper's "remap" command — Lut gates re-enter packing like any other gate,
// so mapping a retimed mapped netlist merges mergeable LUT pairs.
//
// Every table Map builds is indexed by signal and lives for one call.
func Map(c *netlist.Circuit) (*netlist.Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("xc4000: %w", err)
	}
	c = splitWide(c)
	reads := readerCounts(c)

	// Phase 1: best cone per gate output. Cones depend only on fanin
	// cones, so any topological order gives the same ones, and ID order
	// usually is one. Where it is not, or a gate does not fit, the gates
	// are packed again in TopoGates order, which also picks the gate the
	// error names.
	cones := make([]cone, len(c.Signals))
	if !c.GatesInTopoOrder() || packGates(c, nil, cones, reads) != nil {
		order, err := c.TopoGates()
		if err != nil {
			return nil, err
		}
		clear(cones)
		if g := packGates(c, order, cones, reads); g != nil {
			return nil, fmt.Errorf("xc4000: gate %s does not fit a LUT after splitting", g.Name)
		}
	}
	return materialize(c, cones)
}

// packGates packs the live gates in order, or in ID order for a nil order,
// which must be topological. It returns the first gate that does not fit a
// LUT, or nil.
func packGates(c *netlist.Circuit, order []netlist.GateID, cones []cone, reads []int32) *netlist.Gate {
	if order == nil {
		for i := range c.Gates {
			if g := &c.Gates[i]; !g.Dead && !pack(g, cones, reads) {
				return g
			}
		}
		return nil
	}
	for _, gid := range order {
		if g := &c.Gates[gid]; !pack(g, cones, reads) {
			return g
		}
	}
	return nil
}

// pack sets the cone of g's output from the cones of its fanins, which must
// be packed already, and reports false if g does not fit a LUT.
func pack(g *netlist.Gate, cones []cone, reads []int32) bool {
	switch g.Type {
	case netlist.Carry, netlist.Const0, netlist.Const1:
		return true
	case netlist.Buf:
		// Forward the driver's cone (or the raw signal).
		if cn := cones[g.In[0]]; cn.set {
			cones[g.Out] = cn
		} else {
			cones[g.Out] = leafCone(g.In[0])
		}
		return true
	}
	merged, ok := compose(g, cones, reads)
	if !ok {
		// Fall back: every pin is a leaf.
		if merged, ok = compose(g, nil, nil); !ok {
			return false
		}
	}
	cones[g.Out] = merged
	return true
}

// readerCounts counts, per signal, the gate input pins, register pins and
// primary-output entries that read it. Only a count of exactly one matters
// (a cone is absorbed into its single reader), and the mapper asks only about
// signals some gate reads, so a signal listed twice as an output counts as
// "not single" either way.
func readerCounts(c *netlist.Circuit) []int32 {
	reads := make([]int32, len(c.Signals))
	for i := range c.Gates {
		if g := &c.Gates[i]; !g.Dead {
			for _, in := range g.In {
				reads[in]++
			}
		}
	}
	for i := range c.Regs {
		if r := &c.Regs[i]; !r.Dead {
			for _, s := range [...]netlist.SignalID{r.D, r.Clk, r.EN, r.SR, r.AR} {
				if s != netlist.NoSignal {
					reads[s]++
				}
			}
		}
	}
	for _, po := range c.POs {
		reads[po]++
	}
	return reads
}

// compose builds the cone computing g over its pins, failing if the union
// support exceeds MaxLutIn. A pin takes its driver's cone when the driver
// has one and reads says the pin is its only reader; with nil cones every
// pin is a leaf.
func compose(g *netlist.Gate, cones []cone, reads []int32) (cone, bool) {
	var pins [netlist.MaxLutInputs]cone
	var out cone
	for i, in := range g.In {
		p := leafCone(in)
		if cones != nil && cones[in].set && reads[in] == 1 {
			p = cones[in] // absorb single-reader fanin cone
		}
		for _, l := range p.leaves[:p.n] {
			if !slices.Contains(out.leaves[:out.n], l) {
				if out.n == MaxLutIn {
					return cone{}, false
				}
				out.leaves[out.n] = l
				out.n++
			}
		}
		pins[i] = p
	}
	// Each pin as a truth table over the merged leaves, then the gate
	// applied to those words bit-parallel.
	var words [netlist.MaxLutInputs]uint16
	for i := range g.In {
		words[i] = pins[i].over(&out)
	}
	mask := uint16(uint32(1)<<(1<<out.n) - 1)
	out.tt = apply(g, words[:len(g.In)]) & mask
	out.set = true
	return out, true
}

// over returns p as a truth table over the leaves of m, which include p's:
// bit x is p's value when leaf i of m carries bit i of x.
func (p *cone) over(m *cone) uint16 {
	// Leaf i of m as a truth table is leafWords[i].
	leafWords := [MaxLutIn]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}
	if p.n == 1 && p.tt == 0b10 {
		return leafWords[slices.Index(m.leaves[:m.n], p.leaves[0])]
	}
	var words [MaxLutIn]uint16
	for j, l := range p.leaves[:p.n] {
		words[j] = leafWords[slices.Index(m.leaves[:m.n], l)]
	}
	return lut(uint64(p.tt), words[:p.n])
}

// apply evaluates g on every minterm at once: words[i] is pin i's truth
// table, and bit x of the result is g's output when pin i carries bit x of
// words[i].
func apply(g *netlist.Gate, words []uint16) uint16 {
	var r uint16
	switch g.Type {
	case netlist.Not:
		return ^words[0]
	case netlist.And, netlist.Nand:
		r = 0xFFFF
		for _, w := range words {
			r &= w
		}
		if g.Type == netlist.Nand {
			r = ^r
		}
		return r
	case netlist.Or, netlist.Nor:
		for _, w := range words {
			r |= w
		}
		if g.Type == netlist.Nor {
			r = ^r
		}
		return r
	case netlist.Xor, netlist.Xnor:
		for _, w := range words {
			r ^= w
		}
		if g.Type == netlist.Xnor {
			r = ^r
		}
		return r
	case netlist.Mux:
		return words[0]&words[2] | ^words[0]&words[1]
	}
	// The error is for gates wider than MaxLutInputs, which compose has
	// no pin slots for.
	tt, _ := g.TruthTable()
	return lut(tt, words)
}

// lut evaluates a table over len(words) inputs bit-parallel: words[i] is
// input i as a truth table, and bit x of the result is tt's output when
// input i carries bit x of words[i]. It folds the table one input at a
// time, from the highest, as a tree of multiplexers.
func lut(tt uint64, words []uint16) uint16 {
	var t [1 << netlist.MaxLutInputs]uint16
	for j := range 1 << len(words) {
		t[j] = -uint16(tt >> j & 1)
	}
	for i := len(words) - 1; i >= 0; i-- {
		w, h := words[i], 1<<i
		for j := range h {
			t[j] = t[j+h]&w | t[j]&^w
		}
	}
	return t[0]
}

// Resolution states of a signal in plan.id besides its new ID.
const (
	unresolved netlist.SignalID = -2
	resolving  netlist.SignalID = -3 // on the depth-first path: a loop if met again
)

// madeKind says what a gate of the mapped circuit is.
type madeKind uint8

const (
	madeConst0 madeKind = iota
	madeConst1
	madeCarry
	madeLUT
)

// made is one gate of the mapped circuit, in creation order: its kind and
// the signal of c it computes.
type made struct {
	sig  netlist.SignalID
	kind madeKind
}

// plan resolves every consumed signal of c to its signal in the mapped
// circuit. It visits registers' pins and then primary outputs depth-first,
// in the order the mapped circuit is built, so each gate it makes gets the
// next signal ID the build hands out.
type plan struct {
	c      *netlist.Circuit
	cones  []cone
	id     []netlist.SignalID // per signal of c: mapped ID, unresolved or resolving
	made   []made
	pins   int              // inputs of the planned gates
	next   netlist.SignalID // the mapped circuit's next signal ID
	consts [2]netlist.SignalID
}

// materialize rebuilds the circuit with LUTs for every cone whose output is
// actually consumed, rewiring registers, POs and control pins. The plan
// pass decides every gate and ID first, so the build fills tables sized to
// exact counts.
func materialize(c *netlist.Circuit, cones []cone) (*netlist.Circuit, error) {
	p := &plan{c: c, cones: cones, id: make([]netlist.SignalID, len(c.Signals)),
		made:   make([]made, 0, len(c.Gates)+2), // a gate each at most, and two constants
		consts: [2]netlist.SignalID{netlist.NoSignal, netlist.NoSignal}}
	for i := range p.id {
		p.id[i] = unresolved
	}
	for _, pi := range c.PIs {
		p.id[pi] = p.next
		p.next++
	}
	// Register Q signals come next, so cone leaves resolve.
	c.LiveRegs(func(r *netlist.Reg) {
		p.id[r.Q] = p.next
		p.next++
	})
	regs := int(p.next) - len(c.PIs)
	for i := range c.Regs {
		r := &c.Regs[i]
		if r.Dead {
			continue
		}
		for _, s := range [...]netlist.SignalID{r.D, r.Clk, r.EN, r.SR, r.AR} {
			if s == netlist.NoSignal {
				continue
			}
			if _, err := p.need(s); err != nil {
				return nil, err
			}
		}
	}
	for _, po := range c.POs {
		if _, err := p.need(po); err != nil {
			return nil, err
		}
	}

	// The build below appends to these tables without growing them. (An
	// empty table stays nil, as appending nothing would leave it.)
	out := netlist.New(c.Name)
	out.Signals = slices.Grow(out.Signals, int(p.next))
	out.Gates = slices.Grow(out.Gates, len(p.made))
	out.Regs = slices.Grow(out.Regs, regs)
	out.PIs = slices.Grow(out.PIs, len(c.PIs))
	out.POs = slices.Grow(out.POs, len(c.POs))
	for _, pi := range c.PIs {
		out.AddInput(c.Signals[pi].Name)
	}
	c.LiveRegs(func(r *netlist.Reg) {
		out.AddSignal(c.Signals[r.Q].Name)
	})
	// Gate inputs are windows of one array, capacity clipped as in
	// Circuit.Clone.
	pins := make([]netlist.SignalID, 0, p.pins)
	wire := func(gid netlist.GateID, start int) {
		out.Gates[gid].In = pins[start:len(pins):len(pins)]
	}
	for _, m := range p.made {
		switch m.kind {
		case madeConst0:
			out.Const(0)
		case madeConst1:
			out.Const(1)
		case madeCarry:
			g := &c.Gates[c.Signals[m.sig].Driver.Gate]
			start := len(pins)
			for _, s := range g.In {
				pins = append(pins, p.id[s])
			}
			gid, _ := out.AddGate(g.Name, netlist.Carry, nil, DelayCarry)
			wire(gid, start)
		case madeLUT:
			cn := &cones[m.sig]
			start := len(pins)
			for _, l := range cn.leaves[:cn.n] {
				pins = append(pins, p.id[l])
			}
			gid, _ := out.AddLut(c.SignalName(m.sig), nil, uint64(cn.tt), DelayLUT+DelayRoute)
			wire(gid, start)
		}
	}
	pin := func(sig netlist.SignalID) netlist.SignalID {
		if sig == netlist.NoSignal {
			return netlist.NoSignal
		}
		return p.id[sig]
	}
	c.LiveRegs(func(r *netlist.Reg) {
		nr := &out.Regs[out.AddRegTo(r.Name, p.id[r.D], p.id[r.Q], p.id[r.Clk])]
		nr.EN, nr.SR, nr.AR = pin(r.EN), pin(r.SR), pin(r.AR)
		nr.SRVal, nr.ARVal = r.SRVal, r.ARVal
	})
	for _, po := range c.POs {
		out.MarkOutput(p.id[po])
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("xc4000: mapped netlist invalid: %w", err)
	}
	return out, nil
}

// need resolves sig, planning the gates that compute it.
func (p *plan) need(sig netlist.SignalID) (netlist.SignalID, error) {
	switch id := p.id[sig]; id {
	case resolving:
		return netlist.NoSignal, fmt.Errorf("xc4000: combinational loop at %s", p.c.SignalName(sig))
	case unresolved:
	default:
		return id, nil
	}
	p.id[sig] = resolving
	id, err := p.resolve(sig)
	if err != nil {
		return netlist.NoSignal, err
	}
	p.id[sig] = id
	return id, nil
}

func (p *plan) resolve(sig netlist.SignalID) (netlist.SignalID, error) {
	c := p.c
	d := c.Signals[sig].Driver
	if d.Kind != netlist.DriverGate {
		return netlist.NoSignal, fmt.Errorf("xc4000: unmapped signal %s", c.SignalName(sig))
	}
	g := &c.Gates[d.Gate]
	switch g.Type {
	case netlist.Const0:
		return p.constant(0), nil
	case netlist.Const1:
		return p.constant(1), nil
	case netlist.Carry:
		for _, s := range g.In {
			if _, err := p.need(s); err != nil {
				return netlist.NoSignal, err
			}
		}
		p.pins += len(g.In)
		return p.gate(sig, madeCarry), nil
	}
	cn := &p.cones[sig]
	if !cn.set {
		return netlist.NoSignal, fmt.Errorf("xc4000: no cone for %s", c.SignalName(sig))
	}
	// Identity cones (buffers) alias their leaf instead of burning a LUT.
	if cn.n == 1 && cn.tt == 0b10 {
		return p.need(cn.leaves[0])
	}
	// Constant cones collapse.
	if cn.tt == 0 {
		return p.constant(0), nil
	}
	if int(cn.tt) == 1<<(1<<cn.n)-1 {
		return p.constant(1), nil
	}
	for _, l := range cn.leaves[:cn.n] {
		if _, err := p.need(l); err != nil {
			return netlist.NoSignal, err
		}
	}
	p.pins += int(cn.n)
	return p.gate(sig, madeLUT), nil
}

// constant returns the mapped constant-v signal, planning its gate on first
// use as Circuit.Const creates it.
func (p *plan) constant(v int) netlist.SignalID {
	if p.consts[v] == netlist.NoSignal {
		p.consts[v] = p.gate(netlist.NoSignal, madeConst0+madeKind(v))
	}
	return p.consts[v]
}

// gate plans the next gate of the mapped circuit and returns its output.
func (p *plan) gate(sig netlist.SignalID, kind madeKind) netlist.SignalID {
	p.made = append(p.made, made{sig: sig, kind: kind})
	p.next++
	return p.next - 1
}

// splitWide decomposes gates wider than MaxLutIn into balanced trees of
// MaxLutIn-ary gates of the same kind (only And/Or/Nand/Nor/Xor/Xnor can be
// wide). The input circuit is not modified; without a wide gate it is
// returned as is.
func splitWide(c *netlist.Circuit) *netlist.Circuit {
	wide := false
	for i := range c.Gates {
		if g := &c.Gates[i]; !g.Dead && len(g.In) > MaxLutIn {
			wide = true
			break
		}
	}
	if !wide {
		return c
	}
	cp := c.Clone()
	// Note: AddGate below grows cp.Gates and may reallocate it, so the gate
	// is re-indexed (never held by pointer) across appends.
	nOrig := len(cp.Gates)
	for gid := 0; gid < nOrig; gid++ {
		g := cp.Gates[gid]
		if g.Dead || len(g.In) <= MaxLutIn {
			continue
		}
		base, inv := g.Type, false
		switch g.Type {
		case netlist.Nand:
			base, inv = netlist.And, true
		case netlist.Nor:
			base, inv = netlist.Or, true
		case netlist.Xnor:
			base, inv = netlist.Xor, true
		case netlist.And, netlist.Or, netlist.Xor:
		default:
			continue
		}
		in := append([]netlist.SignalID(nil), g.In...)
		for len(in) > MaxLutIn {
			var next []netlist.SignalID
			for i := 0; i < len(in); i += MaxLutIn {
				end := i + MaxLutIn
				if end > len(in) {
					end = len(in)
				}
				if end-i == 1 {
					next = append(next, in[i])
					continue
				}
				_, o := cp.AddGate("", base, in[i:end], g.Delay)
				next = append(next, o)
			}
			in = next
		}
		cp.Gates[gid].In = in
		t := base
		if inv {
			switch base {
			case netlist.And:
				t = netlist.Nand
			case netlist.Or:
				t = netlist.Nor
			case netlist.Xor:
				t = netlist.Xnor
			}
		}
		cp.Gates[gid].Type = t
	}
	return cp
}
