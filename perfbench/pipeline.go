package main

// The batch workloads. table2 takes the paper's own circuits through
// map → retime → remap; deep_pipe takes one deep pipeline file to file. Both
// repeat whole passes over their inputs for the run's measured time.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// batchRun is what the measured loop of a batch workload collected.
type batchRun struct {
	walls       []float64   // untraced pass wall times, s
	tracedWalls []float64   // traced pass wall times, s
	latencies   [][]float64 // per circuit, its latency in each untraced pass, ms
	layers      []layers    // per-layer figures, one set per traced pass
	peaksMB     []float64   // resident memory peak of each untraced pass
}

// minPasses is the fewest passes of each kind a run makes, so a median has
// samples on both sides even when one pass outlasts the measured time.
const minPasses = 3

// measure repeats pass until cfg.seconds are used and each median has
// minPasses samples. pass returns the latency of every circuit it ran, in a
// fixed order; the pass's wall time is their sum, so checks a pass makes
// between circuits are not timed. Every pass starts from a collected heap,
// and its resident peak is sampled. Free memory goes back to the OS once,
// before the first pass, so the peaks belong to the loop; releasing it
// before every pass would time the page faults that map it back, which
// vary more than the work. A traced run alternates untraced and traced
// passes, so both kinds see the same conditions and their ratio is the
// tracing overhead.
func measure(cfg runConfig, name string, pass func(l layers) ([]time.Duration, error)) (*batchRun, error) {
	r := &batchRun{}
	debug.FreeOSMemory()
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(r.walls) >= minPasses && (!cfg.traced || len(r.layers) >= minPasses)
		if enough && time.Since(start) >= cfg.seconds {
			break
		}
		traced := cfg.traced && i%2 == 1
		step("%s pass %d", name, i+1)
		var l layers
		if traced {
			l = layers{}
		}
		mem := startMemPeak(0)
		lats, err := pass(l)
		peakMB := mem.stopMB()
		if err != nil {
			return nil, err
		}
		var wall time.Duration
		for _, d := range lats {
			wall += d
		}
		if traced {
			r.tracedWalls = append(r.tracedWalls, wall.Seconds())
			r.layers = append(r.layers, l)
			continue
		}
		r.walls = append(r.walls, wall.Seconds())
		r.peaksMB = append(r.peaksMB, peakMB)
		if r.latencies == nil {
			r.latencies = make([][]float64, len(lats))
		}
		for c, d := range lats {
			r.latencies[c] = append(r.latencies[c], ms(d))
		}
	}
	return r, nil
}

// metrics assembles a batch workload's metrics: the end-to-end set, or for a
// traced run the per-pass median of every per-layer figure. A circuit's
// latency is its median over the passes; the latency percentiles are taken
// over circuits, so they say how long a typical and a slow input take.
func (r *batchRun) metrics(cfg runConfig, setupS float64, qs []quality, retainedMB float64) metricSet {
	fmt.Printf("samples: %d untraced passes, %d traced passes, %d circuits\n",
		len(r.walls), len(r.tracedWalls), len(r.latencies))
	if cfg.traced {
		l := medianLayers(r.layers)
		l["trace.overhead_ratio"] = ratio(median(r.tracedWalls), median(r.walls))
		return l.metrics()
	}
	lat := make([]float64, len(r.latencies))
	for c, ls := range r.latencies {
		lat[c] = median(ls)
	}
	period, regs := qualityRatios(qs)
	m := metricSet{}
	m.set("setup_s", setupS, "s")
	m.set("wall_s", median(r.walls), "s")
	m.set("latency_p50_ms", median(lat), "ms")
	m.set("latency_p95_ms", percentile(lat, 95), "ms")
	m.set("period_ratio", period, "ratio")
	m.set("regs_ratio", regs, "ratio")
	m.set("peak_rss_mb", median(r.peaksMB), "MB")
	m.set("retained_heap_mb", retainedMB, "MB")
	return m
}

// table2Inputs builds the paper's traffic: the ten Table-2 profiles plus the
// seeded 2600-gate random circuit (seed 1 gives the historical 3085-vertex
// rand1 profile), which comes last.
func table2Inputs(seed int64, tiny bool) ([]*netlist.Circuit, error) {
	profiles, gates := gen.Profiles, 2600
	if tiny {
		profiles, gates = gen.Profiles[:3], 120
	}
	out := make([]*netlist.Circuit, 0, len(profiles)+1)
	for _, p := range profiles {
		c, err := p.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return append(out, gen.Random(seed, gates)), nil
}

// mapCircuit is the Table-1 flow: synchronous set/clear decomposed (XC4000E
// flip-flops have none), then technology mapping.
func mapCircuit(c *netlist.Circuit) (*netlist.Circuit, error) {
	return xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
}

// table2Trip is one circuit's trip through map → retime → remap.
type table2Trip struct {
	mapped, retimed, remapped *netlist.Circuit
	rep                       *core.Report
	sum                       [sha256.Size]byte // SHA-256 of the remapped BLIF
}

func table2Flow(ctx context.Context, c *netlist.Circuit, l layers) (table2Trip, error) {
	var t table2Trip
	err := l.time("xc4000.map_ms", func() (err error) {
		t.mapped, err = mapCircuit(c)
		return err
	})
	if err != nil {
		return t, fmt.Errorf("map: %w", err)
	}
	if t.retimed, t.rep, err = retime(ctx, t.mapped, l); err != nil {
		return t, fmt.Errorf("retime: %w", err)
	}
	err = l.time("xc4000.map_ms", func() (err error) {
		t.remapped, err = xc4000.Map(t.retimed)
		return err
	})
	if err != nil {
		return t, fmt.Errorf("remap: %w", err)
	}
	return t, nil
}

// sameTrip reports whether two passes produced the same report and
// byte-identical remapped BLIF for a circuit; the engine is deterministic, so
// every pass must repeat the first.
func sameTrip(a, b table2Trip) bool {
	return qualityOf(a.rep) == qualityOf(b.rep) && a.rep.StepsMoved == b.rep.StepsMoved && a.sum == b.sum
}

// blifSum returns the SHA-256 of c written as BLIF.
func blifSum(c *netlist.Circuit) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	h := sha256.New()
	if err := blif.Write(h, c); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

func runTable2(ctx context.Context, cfg runConfig) (*result, error) {
	step("table2 set-up")
	inputs, setupS, err := setUp(func() ([]*netlist.Circuit, error) { return table2Inputs(cfg.seed, cfg.tiny) }, nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var first []table2Trip
	run, err := measure(cfg, "table2", func(l layers) ([]time.Duration, error) {
		lats := make([]time.Duration, len(inputs))
		trips := make([]table2Trip, len(inputs))
		for i, c := range inputs {
			t0 := time.Now()
			trip, err := table2Flow(ctx, c, l)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			lats[i] = time.Since(t0)
			if trip.sum, err = blifSum(trip.remapped); err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			trips[i] = trip
		}
		res.Attempted += len(inputs)
		if first == nil {
			first = trips
			return lats, nil
		}
		for i := range trips {
			if !sameTrip(first[i], trips[i]) {
				fmt.Fprintf(os.Stderr, "perfbench: table2 %s: result differs from the first pass\n", inputs[i].Name)
				res.Failed++
			}
		}
		return lats, nil
	})
	if err != nil {
		return nil, err
	}
	retained := retainedHeapMB()

	qs := make([]quality, len(first))
	for i, trip := range first {
		step("table2 correctness gate, %s", inputs[i].Name)
		qs[i] = qualityOf(trip.rep)
		// The gate starts at the generated circuit, except on the random one
		// (the last input), where it starts at the mapped circuit. gen.Random
		// gives some registers both a load enable and a synchronous reset;
		// internal/sim lets the reset win over a low enable, while
		// xc4000.DecomposeSyncResets folds the reset into D behind the
		// enable, so the mapped register holds where the generated one
		// clears. The Table-2 profiles have no synchronous resets.
		in := inputs[i]
		if i == len(first)-1 {
			in = trip.mapped
		}
		skip := trip.mapped.NumRegs() + 2
		if err := checkRetimed(in, trip.remapped, trip.retimed, trip.rep, skip, 40, 2); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: table2 %s: %v\n", inputs[i].Name, err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = run.metrics(cfg, setupS, qs, retained)
	return res, nil
}

// deepPipeShape is the deep profile: width bit chains crossing stages
// register layers, half plain and half load-enable. Bounds work grows with
// vertices × depth, which makes this the bounds workload.
func deepPipeShape(tiny bool) (width, stages int) {
	if tiny {
		return 4, 24
	}
	return 32, 300
}

func runDeepPipe(ctx context.Context, cfg runConfig) (*result, error) {
	width, stages := deepPipeShape(cfg.tiny)
	in := filepath.Join(cfg.tmp, "deep_pipe.blif")
	out := filepath.Join(cfg.tmp, "deep_pipe_retimed.blif")
	step("deep_pipe set-up")
	_, setupS, err := setUp(func() (struct{}, error) {
		c, err := gen.ScalePipeline(cfg.seed, width, stages, gen.ClassMix{Plain: 1, EN: 1})
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, writeBLIF(in, c)
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var (
		rep0 *core.Report
		sum0 [sha256.Size]byte
	)
	run, err := measure(cfg, "deep_pipe", func(l layers) ([]time.Duration, error) {
		t0 := time.Now()
		var c *netlist.Circuit
		if err := l.time("blif.read_ms", func() (err error) {
			c, err = readBLIF(in)
			return err
		}); err != nil {
			return nil, err
		}
		retimed, rep, err := retime(ctx, c, l)
		if err != nil {
			return nil, fmt.Errorf("retime: %w", err)
		}
		if err := l.time("blif.write_ms", func() error { return writeBLIF(out, retimed) }); err != nil {
			return nil, err
		}
		lat := time.Since(t0)
		res.Attempted++
		data, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		if sum := sha256.Sum256(data); rep0 == nil {
			rep0, sum0 = rep, sum
		} else if sum != sum0 {
			fmt.Fprintln(os.Stderr, "perfbench: deep_pipe: output differs from the first pass")
			res.Failed++
		}
		return []time.Duration{lat}, nil
	})
	if err != nil {
		return nil, err
	}
	retained := retainedHeapMB()

	step("deep_pipe correctness gate")
	if err := checkFiles(in, out, rep0, stages); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: deep_pipe: %v\n", err)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	res.Metrics = run.metrics(cfg, setupS, []quality{qualityOf(rep0)}, retained)
	return res, nil
}

// checkFiles gates deep_pipe's output file against its input file. The
// pipeline needs about one cycle per register layer before its outputs
// leave the unknown power-up state, so comparison starts after twice the
// depth and runs a bounded number of cycles on one sequence.
func checkFiles(inPath, outPath string, rep *core.Report, stages int) error {
	in, err := readBLIF(inPath)
	if err != nil {
		return err
	}
	out, err := readBLIF(outPath)
	if err != nil {
		return err
	}
	return checkRetimed(in, out, out, rep, 2*stages+8, 32, 1)
}

func readBLIF(path string) (*netlist.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return blif.Read(f)
}

func writeBLIF(path string, c *netlist.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blif.Write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
