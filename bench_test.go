// Benchmarks regenerating the paper's experiments. One benchmark per table
// and figure (the printable rows come from cmd/mcbench; these measure the
// pipelines and report the headline ratios as metrics), plus ablations for
// the design decisions called out in DESIGN.md.
package mcretiming

import (
	"context"
	"testing"

	"mcretiming/internal/bench"
	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// mapBaseline runs the Table 1 flow for one generated circuit.
func mapBaseline(b *testing.B, c *netlist.Circuit) *netlist.Circuit {
	b.Helper()
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
	if err != nil {
		b.Fatal(err)
	}
	return mapped
}

// genCircuit builds benchmark circuit i, failing the benchmark on error.
func genCircuit(tb testing.TB, i int) *netlist.Circuit {
	tb.Helper()
	c, err := gen.Circuit(i)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkTable1Baseline measures the baseline characterization flow
// (decompose sync set/clear + map + timing) per circuit.
func BenchmarkTable1Baseline(b *testing.B) {
	for _, p := range gen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			c, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				mapped := mapBaseline(b, c)
				st, err := xc4000.Report(mapped)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.FFs), "FF")
				b.ReportMetric(float64(st.LUTs+st.Carry), "LUT")
				b.ReportMetric(float64(st.Delay)/1000, "delay-ns")
			}
		})
	}
}

// BenchmarkComputeWD measures the dense W/D matrix computation — the
// reference the test oracles solve against — on a ≥2000-vertex random
// profile.
func BenchmarkComputeWD(b *testing.B) {
	m, err := mcgraph.Build(gen.Random(1, 2600))
	if err != nil {
		b.Fatal(err)
	}
	g := m.ToGraph()
	if n := g.NumVertices(); n < 2000 {
		b.Fatalf("profile has %d vertices, want >= 2000", n)
	}
	ctx := context.Background()
	b.ReportMetric(float64(g.NumVertices()), "vertices")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ComputeWD(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2MCRetime measures multiple-class retiming (minarea at best
// delay) + remap per circuit, reporting the paper's ratio columns.
func BenchmarkTable2MCRetime(b *testing.B) {
	for _, p := range gen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			c, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			mapped := mapBaseline(b, c)
			before, err := xc4000.Report(mapped)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				retimed, rep, err := core.Retime(mapped, core.Options{Objective: core.MinAreaAtMinPeriod})
				if err != nil {
					b.Fatal(err)
				}
				remapped, err := xc4000.Map(retimed)
				if err != nil {
					b.Fatal(err)
				}
				after, err := xc4000.Report(remapped)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.NumClasses), "classes")
				b.ReportMetric(float64(rep.StepsMoved), "steps-moved")
				b.ReportMetric(float64(after.LUTs+after.Carry)/float64(before.LUTs+before.Carry), "Rlut")
				b.ReportMetric(float64(after.Delay)/float64(before.Delay), "Rdelay")
			}
		})
	}
}

// BenchmarkTable3NoEnable measures the conventional baseline: decompose the
// load enables first, then retime and remap.
func BenchmarkTable3NoEnable(b *testing.B) {
	for _, p := range gen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			c, err := p.Build()
			if err != nil {
				b.Fatal(err)
			}
			mapped := mapBaseline(b, c)
			before, err := xc4000.Report(mapped)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				noen, err := xc4000.Map(xc4000.DecomposeEnables(xc4000.DecomposeSyncResets(c.Clone())))
				if err != nil {
					b.Fatal(err)
				}
				retimed, _, err := core.Retime(noen, core.Options{Objective: core.MinAreaAtMinPeriod})
				if err != nil {
					b.Fatal(err)
				}
				remapped, err := xc4000.Map(retimed)
				if err != nil {
					b.Fatal(err)
				}
				after, err := xc4000.Report(remapped)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(after.LUTs+after.Carry)/float64(before.LUTs+before.Carry), "Rlut1")
				b.ReportMetric(float64(after.Delay)/float64(before.Delay), "Rdelay1")
			}
		})
	}
}

// BenchmarkFig1LoadEnable measures both Fig. 1 flows on the two-register
// enable circuit and reports the area gap.
func BenchmarkFig1LoadEnable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.RunFig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.MCFF), "mc-FF")
		b.ReportMetric(float64(r.BaseFF), "decomposed-FF")
		b.ReportMetric(float64(r.BaseLUT-r.MCLUT), "extra-LUTs")
	}
}

// BenchmarkAblationSharing compares minarea results with and without the
// §4.2 separation-vertex transform: the naive cost model may undercount and
// produce worse real register counts.
func BenchmarkAblationSharing(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"separation", false}, {"naive", true}} {
		b.Run(variant.name, func(b *testing.B) {
			c := genCircuit(b, 7) // many classes: sharing conflicts abound
			mapped := mapBaseline(b, c)
			for i := 0; i < b.N; i++ {
				out, _, err := core.Retime(mapped, core.Options{
					Objective:      core.MinAreaAtMinPeriod,
					DisableSharing: variant.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out.NumRegs()), "FF-after")
			}
		})
	}
}

// BenchmarkAblationJustify measures the cost of reset-state computation by
// comparing full justification against the naive hooks (X reset values) on
// an async-reset-heavy circuit.
func BenchmarkAblationJustify(b *testing.B) {
	for _, variant := range []struct {
		name    string
		disable bool
	}{{"bdd-justify", false}, {"naive", true}} {
		b.Run(variant.name, func(b *testing.B) {
			c := genCircuit(b, 6)
			mapped := mapBaseline(b, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Retime(mapped, core.Options{
					Objective:      core.MinAreaAtMinPeriod,
					DisableJustify: variant.disable,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJustifyEngine compares the paper's BDD justification
// against the SAT backend on the conflict-heavy register-dominated circuit.
func BenchmarkAblationJustifyEngine(b *testing.B) {
	for _, variant := range []struct {
		name string
		sat  bool
	}{{"bdd", false}, {"sat", true}} {
		b.Run(variant.name, func(b *testing.B) {
			c := genCircuit(b, 6)
			mapped := mapBaseline(b, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Retime(mapped, core.Options{
					Objective:  core.MinAreaAtMinPeriod,
					SATJustify: variant.sat,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLazyVsDense compares the lazy cutting-plane period
// constraints against the dense W/D formulation on a mapped circuit — the
// implementation choice that makes the suite tractable.
func BenchmarkAblationLazyVsDense(b *testing.B) {
	c := genCircuit(b, 1)
	mapped := mapBaseline(b, c)
	m, err := mcgraph.Build(mapped)
	if err != nil {
		b.Fatal(err)
	}
	info := m.ComputeBounds()
	g, bounds, err := m.AreaGraph(context.Background(), info)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("dense-WD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := g.MinPeriod(nil, bounds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lazy-cuts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := g.MinPeriodLazy(context.Background(), bounds, nil, graph.NewProbeLadder()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBoundsComputation measures step 2 (maximal backward/forward
// retiming) alone — the paper reports it as a few percent of total runtime —
// on the register-dominated mapped C6 and on the deep 32×300 pipeline, whose
// 5.76M possible unit steps the multi-layer sweeps cover in ~38k moves.
func BenchmarkBoundsComputation(b *testing.B) {
	deep, err := gen.ScalePipeline(1, 32, 300, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
	}{
		{"C6-mapped", mapBaseline(b, genCircuit(b, 6))},
		{"pipe32x300", deep},
	} {
		m, err := mcgraph.Build(tc.c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.ComputeBoundsCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
