//go:build !race

package mcgraph

import (
	"context"
	"runtime"
	"testing"

	"mcretiming/internal/gen"
)

// TestBoundsBytesIndependentOfSteps checks that the bytes the §4.1 bounds
// sweeps allocate follow the graph, not the steps they move. Doubling a
// pipeline's depth doubles its vertices and edges but quadruples the steps
// (every layer may cross every stage); the sweeps' buffers recycle through
// their free list, so their bytes may only double. The race detector
// allocates on its own, so the file is skipped under -race.
func TestBoundsBytesIndependentOfSteps(t *testing.T) {
	type run struct {
		steps int64
		verts int
		bytes uint64
	}
	measure := func(stages int) run {
		c, err := gen.ScalePipeline(1, 16, stages, gen.ClassMix{Plain: 1, EN: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := m.ComputeBoundsCtx(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return run{info.StepsPossible, len(m.Verts), after.TotalAlloc - before.TotalAlloc}
	}
	short, deep := measure(150), measure(300)
	t.Logf("16×150: %d steps, %d vertices, %d bytes; 16×300: %d steps, %d vertices, %d bytes",
		short.steps, short.verts, short.bytes, deep.steps, deep.verts, deep.bytes)
	if deep.steps < 3*short.steps {
		t.Fatalf("steps grew only %d → %d: the profile no longer separates steps from size", short.steps, deep.steps)
	}
	// Bytes per vertex may drift by a quarter; per step they must fall.
	if 4*deep.bytes*uint64(short.verts) > 5*short.bytes*uint64(deep.verts) {
		t.Fatalf("bounds bytes grew %.2f× for %.2f× the vertices: the sweeps allocate per step",
			float64(deep.bytes)/float64(short.bytes), float64(deep.verts)/float64(short.verts))
	}
}
