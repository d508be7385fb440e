package bench

import (
	"context"
	"fmt"
	"strings"

	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/hdlio"
	"mcretiming/internal/netlist"
	"mcretiming/internal/retime"
)

// EnginePerf is the sparse-vs-dense solve-core measurement (mcbench
// -engines): the cold minperiod+minarea solve on the Table-2-scale random
// profile under both engines, and the ECO path (Prepared.Apply on a one-gate
// delay edit) against a cold Prepare on the same edited circuit.
type EnginePerf struct {
	// Vertices is the solver-graph size of the profile both engines solve.
	Vertices int `json:"vertices"`

	// Cold two-phase solve (minperiod + minarea), best of a few repetitions.
	DenseColdNS  int64 `json:"dense_cold_ns"`
	SparseColdNS int64 `json:"sparse_cold_ns"`
	// SparseSpeedup is dense wall / sparse wall: > 1 means the matrix-free
	// engine beats the W/D reference on a cold solve.
	SparseSpeedup float64 `json:"sparse_speedup"`
	// Identical: both engines found the same minimum period and the same
	// shared-register count.
	Identical bool `json:"identical"`

	// The ECO measurement: a cold core.Prepare on an edited circuit vs
	// Prepared.Apply absorbing the same edit incrementally.
	PrepareNS int64 `json:"prepare_ns"`
	ApplyNS   int64 `json:"apply_ns"`
	// EcoSpeedup is cold-prepare wall / apply wall.
	EcoSpeedup float64 `json:"eco_speedup"`
	// EcoIdentical: the ECO'd Prepared's anchor solve produced the same
	// circuit text as the cold Prepare's.
	EcoIdentical bool `json:"eco_identical"`
}

// MeasureEnginesCtx measures the sparse engine against the dense reference on
// the ≥2000-vertex random profile, then the ECO
// re-prepare path against a cold prepare. It is the acceptance measurement of
// the matrix-free solve core: sparse must win the cold solve and Apply must
// beat a cold Prepare by a wide margin while both stay result-identical.
func MeasureEnginesCtx(ctx context.Context) (*EnginePerf, error) {
	g, err := perfGraph()
	if err != nil {
		return nil, err
	}
	ep := &EnginePerf{Vertices: g.NumVertices()}

	// Cold solves. Each repetition rebuilds its pool/matrices from nothing —
	// the point is the cold cost, not the cached one.
	const reps = 3
	var densePhi, sparsePhi int64
	var denseRegs, sparseRegs int64
	denseWall, err := bestOf(reps, func() error {
		phi, r, err := retime.MinPeriodMinAreaDense(g, nil)
		if err != nil {
			return err
		}
		densePhi, denseRegs = phi, retime.SharedRegCount(g, r)
		return ctx.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("bench: dense cold solve: %w", err)
	}
	sparseWall, err := bestOf(reps, func() error {
		phi, r, err := retime.MinPeriodMinArea(g, nil)
		if err != nil {
			return err
		}
		sparsePhi, sparseRegs = phi, retime.SharedRegCount(g, r)
		return ctx.Err()
	})
	if err != nil {
		return nil, fmt.Errorf("bench: sparse cold solve: %w", err)
	}
	ep.DenseColdNS = denseWall.Nanoseconds()
	ep.SparseColdNS = sparseWall.Nanoseconds()
	ep.SparseSpeedup = float64(denseWall) / float64(sparseWall)
	ep.Identical = densePhi == sparsePhi && denseRegs == sparseRegs

	// ECO: edit the slowest gate of the profile circuit and compare a cold
	// Prepare+Anchor on the edited circuit against Apply+Anchor from a
	// Prepared of the original.
	c := gen.Random(1, 2600)
	var gate *netlist.Gate
	c.LiveGates(func(gt *netlist.Gate) {
		if gate == nil || gt.Delay > gate.Delay {
			gate = gt
		}
	})
	if gate == nil {
		return nil, fmt.Errorf("bench: profile circuit has no gates")
	}
	edit := core.Edit{Gate: gate.Name, DelayPS: gate.Delay/2 + 1}
	opts := core.Options{}

	base, err := core.Prepare(ctx, c, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: eco base prepare: %w", err)
	}
	edited := c.Clone()
	edited.Gates[gate.ID].Delay = edit.DelayPS

	var cold *core.Prepared
	prepWall, err := bestOf(reps, func() error {
		p, err := core.Prepare(ctx, edited, opts)
		cold = p
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: eco cold prepare: %w", err)
	}
	var eco *core.Prepared
	applyWall, err := bestOf(reps, func() error {
		p, err := base.Apply(edit)
		eco = p
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: eco apply: %w", err)
	}
	ep.PrepareNS = prepWall.Nanoseconds()
	ep.ApplyNS = applyWall.Nanoseconds()
	if applyWall > 0 {
		ep.EcoSpeedup = float64(prepWall) / float64(applyWall)
	}

	coldOut, _, err := cold.Anchor(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: eco cold anchor: %w", err)
	}
	ecoOut, _, err := eco.Anchor(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: eco anchor: %w", err)
	}
	coldText, err := circuitString(coldOut)
	if err != nil {
		return nil, err
	}
	ecoText, err := circuitString(ecoOut)
	if err != nil {
		return nil, err
	}
	ep.EcoIdentical = coldText == ecoText
	return ep, nil
}

// circuitString renders a circuit in the textual netlist format for
// bit-identity comparison.
func circuitString(c *netlist.Circuit) (string, error) {
	var sb strings.Builder
	if err := hdlio.Write(&sb, c); err != nil {
		return "", err
	}
	return sb.String(), nil
}
