package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// gateRegression is the wall-clock regression the gate tolerates against a
// committed baseline snapshot before failing: 10%.
const gateRegression = 1.10

// gateWarmSpeedup is the self-relative floor the warm-started minperiod
// search must clear over the cold path on the 50k profile. Unlike the
// baseline comparison it is host-independent (both sides run on the same
// machine in the same process), so it is enforced unconditionally.
const gateWarmSpeedup = 2.0

// LoadPerf reads a committed performance snapshot (a BENCH_*.json file).
func LoadPerf(path string) (*Perf, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: gate baseline: %w", err)
	}
	var p Perf
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("bench: gate baseline %s: %w", path, err)
	}
	if p.Schema != PerfSchema {
		return nil, fmt.Errorf("bench: gate baseline %s: schema %q, want %q", path, p.Schema, PerfSchema)
	}
	return &p, nil
}

// Gate compares the current snapshot against a committed baseline and
// returns the list of violations (empty = pass).
//
// Two classes of check:
//
//   - Self-relative (always enforced): the warm minperiod search must be at
//     least gateWarmSpeedup× the cold path, bit-identical to it, and
//     structurally warm — exactly one cold SPFA start for the whole search.
//     All of these compare the run against itself, so they are robust to
//     machine differences and absolute-time noise.
//   - Baseline-relative (host-aware): the serial Table-2 wall time must not
//     regress more than gateRegression× the committed snapshot's. Comparing
//     wall clocks across different machines measures the machines, not the
//     code, so this check is skipped — with a note in skipped — when the
//     host shape (GOMAXPROCS/NumCPU) differs from the baseline's. The warm
//     profile's wall gets no baseline check at all: at ~100ms it sits below
//     this-class hardware's run-to-run noise (±25% observed), so the 10%
//     tolerance would flag noise, and a real warm-path regression already
//     trips the structural checks (a broken ladder re-seeds per probe, a
//     broken certificate path drops the speedup under the floor).
func Gate(cur, base *Perf) (violations, skipped []string) {
	if cur.Warm != nil {
		if !cur.Warm.Identical {
			violations = append(violations, "warm minperiod result diverged from the cold reference")
		}
		if cur.Warm.Speedup < gateWarmSpeedup {
			violations = append(violations, fmt.Sprintf(
				"warm minperiod speedup %.2fx below the %.1fx floor (cold %.0fms, warm %.0fms)",
				cur.Warm.Speedup, gateWarmSpeedup,
				float64(cur.Warm.ColdNS)/1e6, float64(cur.Warm.WarmNS)/1e6))
		}
		if cur.Warm.SPFAColdStartsWarm != 1 {
			violations = append(violations, fmt.Sprintf(
				"warm minperiod search performed %d cold SPFA starts, want exactly 1",
				cur.Warm.SPFAColdStartsWarm))
		}
	}
	if base == nil {
		return violations, skipped
	}
	if base.GoMaxProcs != cur.GoMaxProcs || base.NumCPU != cur.NumCPU {
		skipped = append(skipped, fmt.Sprintf(
			"baseline wall comparison: host shape differs (baseline %d/%d procs, current %d/%d)",
			base.GoMaxProcs, base.NumCPU, cur.GoMaxProcs, cur.NumCPU))
		return violations, skipped
	}
	serialWall := func(pts []PerfPoint) int64 {
		for _, pt := range pts {
			if pt.Workers == 1 {
				return pt.WallNS
			}
		}
		return 0
	}
	if b, c := serialWall(base.Table2), serialWall(cur.Table2); b > 0 && c > 0 &&
		float64(c) > float64(b)*gateRegression {
		violations = append(violations, fmt.Sprintf(
			"table2 serial wall regressed %.0fms -> %.0fms (>%.0f%%)",
			float64(b)/1e6, float64(c)/1e6, (gateRegression-1)*100))
	}
	return violations, skipped
}
