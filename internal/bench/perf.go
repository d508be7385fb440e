package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
)

// PerfSchema identifies the JSON layout of Perf for downstream tooling that
// tracks the benchmark trajectory across PRs.
const PerfSchema = "mcretiming-perf/v1"

// PerfPoint is one wall-time measurement of a stage. Workers is always 1:
// the solve is serial. The field stays so snapshots written while the solve
// still had a worker pool (several points per stage) load and gate the same
// way — the gate reads their workers=1 point.
type PerfPoint struct {
	Workers int   `json:"workers"`
	WallNS  int64 `json:"wall_ns"`
}

// Perf is the machine-readable performance snapshot cmd/mcbench -json writes.
// GoMaxProcs/NumCPU pin down the host, so the gate compares wall times only
// between snapshots taken on the same host shape.
type Perf struct {
	Schema     string      `json:"schema"`
	PR         string      `json:"pr,omitempty"`
	GoMaxProcs int         `json:"gomaxprocs"`
	NumCPU     int         `json:"numcpu"`
	Table2     []PerfPoint `json:"table2"`
	// SolveCache is the process-cumulative graph.SolveCache traffic during
	// the Table 2 measurement: how much recomputation the engine's
	// memoization absorbed.
	SolveCache graph.CacheStats `json:"solve_cache"`
	// Explore is the design-space-sweep measurement (mcbench -explore);
	// absent when not requested.
	Explore *ExplorePerf `json:"explore,omitempty"`
	// Engines is the sparse-vs-dense solve-core and ECO measurement
	// (mcbench -engines); absent when not requested.
	Engines *EnginePerf `json:"engines,omitempty"`
	// Warm is the warm-started-probe measurement on the ≥50k-vertex
	// minperiod profile (mcbench -warm); absent when not requested.
	Warm *WarmPerf `json:"warm,omitempty"`
}

// perfGraph builds the ≥2000-vertex random profile the dense-vs-sparse
// measurement (and BenchmarkComputeWD) runs on.
func perfGraph() (*graph.Graph, error) {
	m, err := mcgraph.Build(gen.Random(1, 2600))
	if err != nil {
		return nil, fmt.Errorf("bench: perf profile: %w", err)
	}
	g := m.ToGraph()
	if n := g.NumVertices(); n < 2000 {
		return nil, fmt.Errorf("bench: perf profile has %d vertices, want ≥ 2000", n)
	}
	return g, nil
}

// bestOf runs fn reps times and returns the minimum wall time — single-shot
// timings are dominated by GC and page-fault noise here, and the engine is
// deterministic so every repetition does identical work.
func bestOf(reps int, fn func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// MeasurePerfCtx times the full Table 2 suite through the retiming engine
// (best of a few repetitions) and records the solve-cache traffic.
// Cancellation aborts the measurement between (and inside) repetitions.
func MeasurePerfCtx(ctx context.Context) (*Perf, error) {
	p := &Perf{
		Schema:     PerfSchema,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	const suiteReps = 2
	cachePrev := graph.TotalCacheStats()
	wall, err := bestOf(suiteReps, func() error {
		_, err := RunSuiteCtx(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.Table2 = []PerfPoint{{Workers: 1, WallNS: wall.Nanoseconds()}}
	p.SolveCache = graph.TotalCacheStats().Delta(cachePrev)
	return p, nil
}

// WriteJSON writes the snapshot as indented JSON.
func (p *Perf) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}
