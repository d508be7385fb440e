package mcgraph

import (
	"errors"
	"fmt"

	"mcretiming/internal/graph"
	"mcretiming/internal/rterr"
)

// Hooks supplies reset values for the register layers created while a
// retiming solution is implemented (§5.2). The justify package provides the
// BDD-based implementation; NaiveHooks leaves every created value unknown.
//
// Backward receives the layer removed from v's fanout edges (in Out(v)
// order) and the freshly inserted fanin layer (in In(v) order, one register
// per input pin of v's gate); it returns the inserted layer with S/A values
// filled in (Class and Serial must be preserved). Forward is the analogous
// hook for forward steps, whose inserted layer is a single shared register.
//
// A Hooks error aborts relocation; ErrJustify wraps non-resolvable reset
// conflicts so the caller can tighten a bound and re-solve.
//
// A Hooks implementation may leave the S/A values of instances already on
// the graph stale while the moves run (the removed instances it is handed
// may then carry stale values too). Flush must make them final: Relocate
// calls it exactly once, on every return, after the last Backward or
// Forward call.
type Hooks interface {
	Backward(v graph.VertexID, removed, inserted []RegInst) ([]RegInst, error)
	Forward(v graph.VertexID, removed []RegInst, inserted RegInst) (RegInst, error)
	Flush(m *MC)
}

// ErrUnjustifiable is the sentinel a Hooks implementation returns from
// Backward when neither local nor global justification can produce reset
// values for the step. Relocate undoes the step, freezes the vertex, keeps
// going to harvest every other conflict in the same pass, and reports them
// all in one ErrJustify so the caller re-solves once.
var ErrUnjustifiable = fmt.Errorf("mcgraph: reset values not justifiable: %w", rterr.ErrJustifyConflict)

// Conflict is one unjustifiable backward move: vertex V managed Achieved
// backward steps before the failing one.
type Conflict struct {
	V        graph.VertexID
	Achieved int32
}

// ErrJustify aggregates the justification conflicts of one relocation pass.
// The caller is expected to set r_max(c.V) = c.Achieved for every conflict
// and compute a new retiming (paper §5.2 last paragraph).
type ErrJustify struct {
	Conflicts []Conflict
}

func (e *ErrJustify) Error() string {
	return fmt.Sprintf("mcgraph: %d unjustifiable backward moves (first at vertex %d, achieved %d)",
		len(e.Conflicts), e.Conflicts[0].V, e.Conflicts[0].Achieved)
}

// Unwrap ties the aggregate into the error taxonomy so callers can match it
// with errors.Is(err, rterr.ErrJustifyConflict).
func (e *ErrJustify) Unwrap() error { return rterr.ErrJustifyConflict }

// NaiveHooks implements Hooks with no justification: created registers keep
// unknown (X) reset values. Useful for classes without reset controls, for
// tests, and as the ablation baseline.
type NaiveHooks struct{}

// Backward returns the inserted layer unchanged.
func (NaiveHooks) Backward(_ graph.VertexID, _, inserted []RegInst) ([]RegInst, error) {
	return inserted, nil
}

// Forward returns the inserted register unchanged.
func (NaiveHooks) Forward(_ graph.VertexID, _ []RegInst, inserted RegInst) (RegInst, error) {
	return inserted, nil
}

// Flush does nothing: NaiveHooks never holds values back.
func (NaiveHooks) Flush(*MC) {}

// FaninLayer returns the sink-nearest register of each fanin edge of v, in
// In(v) order (the layer StepBackward just appended).
func (m *MC) FaninLayer(v graph.VertexID) []RegInst {
	out := make([]RegInst, 0, len(m.in[v]))
	for _, ei := range m.in[v] {
		regs := m.Edges[ei].Regs
		out = append(out, regs[len(regs)-1])
	}
	return out
}

// setFaninLayerInsts overwrites the layer StepBackward appended with insts
// (same order). Serial and Class of each slot must match.
func (m *MC) setFaninLayerInsts(v graph.VertexID, insts []RegInst) error {
	if len(insts) != len(m.in[v]) {
		return fmt.Errorf("mcgraph: hook returned %d values for %d fanin edges", len(insts), len(m.in[v]))
	}
	for i, ei := range m.in[v] {
		regs := m.Edges[ei].Regs
		cur := regs[len(regs)-1]
		if insts[i].Serial != cur.Serial || insts[i].Class != cur.Class {
			return fmt.Errorf("mcgraph: hook altered serial/class of inserted register")
		}
		regs[len(regs)-1] = insts[i]
	}
	return nil
}

// RelocationStats summarizes an implemented retiming.
type RelocationStats struct {
	BackwardSteps, ForwardSteps int
	// LayersMoved is Σ_v |r(v)|: the paper's "#Step" first number.
	LayersMoved int64
}

// Relocate implements the retiming r on the mc-graph by a sequence of valid
// mc-retiming steps (paper step 6), calling hooks for every created layer so
// equivalent reset states are computed move by move. r is indexed by the
// mc-graph's vertices; entries beyond len(m.Verts) (separation vertices of
// the area graph) are ignored.
//
// The step order is a worklist to a fixpoint: a step at a vertex with
// remaining quota is applied whenever it is valid; a deadlock with quota
// left means r was not a legal mc-retiming.
func (m *MC) Relocate(r []int32, hooks Hooks) (*RelocationStats, error) {
	if hooks == nil {
		hooks = NaiveHooks{}
	}
	stats, err := m.relocate(r, hooks)
	hooks.Flush(m)
	return stats, err
}

func (m *MC) relocate(r []int32, hooks Hooks) (*RelocationStats, error) {
	n := len(m.Verts)
	pending := make([]int32, n)
	stats := &RelocationStats{}
	for v := 0; v < n && v < len(r); v++ {
		pending[v] = r[v]
		if r[v] >= 0 {
			stats.LayersMoved += int64(r[v])
		} else {
			stats.LayersMoved -= int64(r[v])
		}
		if m.Verts[v].Pinned && r[v] != 0 {
			return nil, fmt.Errorf("mcgraph: retiming moves pinned vertex %s by %d", m.Verts[v].Name, r[v])
		}
	}
	done := make([]int32, n)  // backward steps performed per vertex
	frozen := make([]bool, n) // vertices with an unjustifiable backward move
	var conflicts []Conflict

	progress := true
	for progress {
		progress = false
		for v := graph.VertexID(1); int(v) < n; v++ {
			for pending[v] > 0 && !frozen[v] {
				if _, ok := m.CanBackward(v); !ok {
					break
				}
				removed, err := m.StepBackward(v)
				if err != nil {
					return nil, err
				}
				inserted := m.FaninLayer(v)
				filled, err := hooks.Backward(v, removed, inserted)
				if err != nil {
					if errors.Is(err, ErrUnjustifiable) {
						// Undo the step, freeze the vertex, and continue so
						// one pass collects every conflict (§5.2).
						m.undoBackward(v, removed)
						frozen[v] = true
						conflicts = append(conflicts, Conflict{V: v, Achieved: done[v]})
						break
					}
					return nil, err
				}
				if err := m.setFaninLayerInsts(v, filled); err != nil {
					return nil, err
				}
				pending[v]--
				done[v]++
				stats.BackwardSteps++
				progress = true
			}
			for pending[v] < 0 {
				if _, ok := m.CanForward(v); !ok {
					break
				}
				removed, err := m.StepForward(v)
				if err != nil {
					return nil, err
				}
				inserted := m.Edges[m.out[v][0]].Regs[0]
				filled, err := hooks.Forward(v, removed, inserted)
				if err != nil {
					return nil, err
				}
				if filled.Serial != inserted.Serial || filled.Class != inserted.Class {
					return nil, fmt.Errorf("mcgraph: hook altered serial/class of inserted register")
				}
				m.SetFanoutLayer(v, filled)
				pending[v]++
				stats.ForwardSteps++
				progress = true
			}
		}
	}
	if len(conflicts) > 0 {
		return nil, &ErrJustify{Conflicts: conflicts}
	}
	for v := 0; v < n; v++ {
		if pending[v] != 0 {
			return nil, fmt.Errorf("mcgraph: relocation deadlock at %s with %d pending steps (illegal mc-retiming?)",
				m.Verts[v].Name, pending[v])
		}
	}
	return stats, nil
}

// undoBackward reverses a StepBackward at v whose values could not be
// justified: the freshly appended fanin layer is removed and the original
// instances are pushed back onto the fanout edges (in Out(v) order).
func (m *MC) undoBackward(v graph.VertexID, removed []RegInst) {
	for _, ei := range m.in[v] {
		e := &m.Edges[ei]
		e.Regs = e.Regs[:len(e.Regs)-1]
	}
	for i, ei := range m.out[v] {
		e := &m.Edges[ei]
		e.Regs = append([]RegInst{removed[i]}, e.Regs...)
	}
}
