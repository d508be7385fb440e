package core

// ECO (engineering change order) re-retiming: a Prepared carries the model
// half of the flow (mc-graph, class bounds, sharing modification, solver
// graph), and for a gate-delay edit every one of those artifacts except the
// delay vectors survives unchanged:
//
//   - the register classes, the maximal-retiming bounds, and the sharing
//     analysis (which fanout sets need separation vertices) depend only on
//     the circuit's register/connection structure, never on gate delays;
//   - the solver graph's vertices and edges are that same structure.
//
// Apply therefore patches the single edited delay through the circuit, the
// mc-graph, and the solver graph — skipping steps 1-3 entirely. What it must
// NOT reuse is anything derived from delays: the pooled period cuts (their
// path delays are stale), the probe ladders' warm SPFA state, the candidate
// period list, and the baseline period, all of which the new Prepared starts
// empty and recomputes lazily or here.
//
// Edits that change structure (add/remove gates or registers, rewire pins)
// change the class bounds and the sharing analysis and need a cold Prepare;
// Apply rejects everything but the delay edit it models.

import (
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
)

// Edit is a netlist ECO a Prepared can absorb without a cold re-prepare:
// a new propagation delay for one named gate (after re-synthesis of a cell,
// a drive-strength swap, a post-layout timing update).
type Edit struct {
	Gate    string // name of the gate to edit
	DelayPS int64  // its new propagation delay, picoseconds
}

// Apply returns a new Prepared for the edited circuit, reusing every
// delay-independent artifact of the model half (mc-graph structure, register
// classes, retiming bounds, sharing modification) and patching only the delay
// vectors — the ECO path for the re-retiming rounds of §5.2-style flows and
// for incremental timing updates. p itself is unchanged and stays valid.
//
// The result is indistinguishable from Prepare on the edited circuit: the
// anchor solve, every SolveAtPeriod, and the candidate list are bit-identical
// to a cold prepare's (the equivalence tests pin this down), at a fraction of
// the cost — no class analysis, no bounds sweeps, no sharing analysis.
func (p *Prepared) Apply(edit Edit) (*Prepared, error) {
	if edit.DelayPS < 0 {
		return nil, fmt.Errorf("core: eco: negative delay %d for gate %q: %w",
			edit.DelayPS, edit.Gate, rterr.ErrMalformedInput)
	}
	var gate *netlist.Gate
	p.in.LiveGates(func(g *netlist.Gate) {
		if gate == nil && g.Name == edit.Gate {
			gate = g
		}
	})
	if gate == nil {
		return nil, fmt.Errorf("core: eco: no gate named %q: %w", edit.Gate, rterr.ErrMalformedInput)
	}
	v, ok := p.st.m.VertexOfGate(gate.ID)
	if !ok {
		return nil, fmt.Errorf("core: eco: gate %q has no mc-graph vertex: %w", edit.Gate, rterr.ErrMalformedInput)
	}

	// Patch the circuit. Relocate clones the mc-graph but Rebuild reads
	// MC.Ckt, so the clone must point at the edited circuit.
	ckt := p.in.Clone()
	ckt.Gates[gate.ID].Delay = edit.DelayPS
	m := p.st.m.Clone()
	m.Ckt = ckt
	m.Verts[v].Delay = edit.DelayPS

	// Patch the solver graph. Its vertices 1..len(m.Verts)-1 are the mc-graph
	// vertices at the same indices (separation vertices, appended after,
	// carry delay 0 and are untouched by a gate edit), so the gate's solver
	// vertex is v itself. WithDelays shares the structure — edges, adjacency —
	// with the old graph but has a fresh identity, so no probe ladder bound
	// to the old graph can warm-start on it.
	delays := append([]int64(nil), p.st.g.Delay...)
	delays[v] = edit.DelayPS
	g := p.st.g.WithDelays(delays)

	st := &flowState{
		in:     ckt,
		opts:   p.opts,
		m:      m,
		info:   p.st.info, // bounds analysis: delay-independent, reused
		g:      g,
		bounds: p.st.bounds, // pristine post-share bounds; cloned per solve
		pool:   &graph.CutPool{},
	}
	rep := p.baseRep
	rep.Degraded = append([]string(nil), p.baseRep.Degraded...)
	rep.PassTimes = append([]PassTime(nil), p.baseRep.PassTimes...)
	var err error
	if rep.PeriodBefore, err = g.Period(nil); err != nil {
		return nil, fmt.Errorf("core: eco: %w", err)
	}
	st.rep = &rep
	return &Prepared{
		in:      ckt,
		opts:    p.opts,
		st:      st,
		baseRep: rep,
	}, nil
}
