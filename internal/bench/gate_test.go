package bench

import (
	"strings"
	"testing"
)

func warmOK() *WarmPerf {
	return &WarmPerf{
		ColdNS:             400e6,
		WarmNS:             100e6,
		Speedup:            4.0,
		Identical:          true,
		SPFAColdStartsCold: 13,
		SPFAColdStartsWarm: 1,
	}
}

func perfOK() *Perf {
	return &Perf{
		Schema:     PerfSchema,
		GoMaxProcs: 2,
		NumCPU:     2,
		Table2:     []PerfPoint{{Workers: 1, WallNS: 800e6}},
		Warm:       warmOK(),
	}
}

func TestGateCleanPass(t *testing.T) {
	v, s := Gate(perfOK(), perfOK())
	if len(v) != 0 || len(s) != 0 {
		t.Fatalf("violations=%v skipped=%v, want none", v, s)
	}
}

// The self-relative checks fire with or without a baseline.
func TestGateSelfRelative(t *testing.T) {
	for _, tc := range []struct {
		name  string
		mut   func(*Perf)
		match string
	}{
		{"speedup below floor", func(p *Perf) {
			p.Warm.Speedup = 1.5
		}, "below the"},
		{"diverged result", func(p *Perf) {
			p.Warm.Identical = false
		}, "diverged"},
		{"warm search re-seeded per probe", func(p *Perf) {
			p.Warm.SPFAColdStartsWarm = 13
		}, "cold SPFA starts"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := perfOK()
			tc.mut(cur)
			for _, base := range []*Perf{nil, perfOK()} {
				v, _ := Gate(cur, base)
				if len(v) != 1 || !strings.Contains(v[0], tc.match) {
					t.Fatalf("base=%v: violations %v, want one matching %q", base != nil, v, tc.match)
				}
			}
		})
	}
}

func TestGateTable2Regression(t *testing.T) {
	cur := perfOK()
	cur.Table2[0].WallNS = 1000e6 // 25% over the 800ms baseline
	v, _ := Gate(cur, perfOK())
	if len(v) != 1 || !strings.Contains(v[0], "table2") {
		t.Fatalf("violations %v, want one table2 regression", v)
	}
}

// Wall comparisons against a baseline from a different host shape measure the
// hosts, not the code: they must be skipped, not failed.
func TestGateHostShapeSkip(t *testing.T) {
	cur := perfOK()
	cur.Table2[0].WallNS = 10000e6
	base := perfOK()
	base.NumCPU = 64
	v, s := Gate(cur, base)
	if len(v) != 0 {
		t.Fatalf("violations %v, want none on host-shape mismatch", v)
	}
	if len(s) != 1 || !strings.Contains(s[0], "host shape") {
		t.Fatalf("skipped %v, want one host-shape note", s)
	}
}

// The warm profile's absolute wall is deliberately NOT baseline-gated (it is
// below run-to-run noise on CI-class hardware); only structural regressions
// fail the gate.
func TestGateWarmWallNotBaselineGated(t *testing.T) {
	cur := perfOK()
	cur.Warm.ColdNS = 1200e6
	cur.Warm.WarmNS = 300e6 // 3x the baseline's wall, but still 4x speedup
	v, _ := Gate(cur, perfOK())
	if len(v) != 0 {
		t.Fatalf("violations %v, want none for a noisy-but-structurally-sound warm wall", v)
	}
}

// The committed warm-start snapshot predates the removal of its arrival
// column; it must still load as a gate baseline, warm section intact.
func TestCommittedWarmSnapshotLoads(t *testing.T) {
	p, err := LoadPerf("../../BENCH_pr8.json")
	if err != nil {
		t.Fatal(err)
	}
	if p.Warm == nil || p.Warm.WarmNS == 0 || p.Warm.ColdNS == 0 {
		t.Fatalf("warm section lost: %+v", p.Warm)
	}
	if v, _ := Gate(p, nil); len(v) != 0 {
		t.Fatalf("committed snapshot fails the self-relative gate: %v", v)
	}
}
