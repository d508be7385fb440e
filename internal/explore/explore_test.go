package explore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/store"
	"mcretiming/internal/xc4000"
)

// mappedProfile builds the i-th gen profile mapped to the XC4000 library —
// the same flow the bench suite retimes.
func mappedProfile(t *testing.T, i int) *netlist.Circuit {
	t.Helper()
	c, err := gen.Circuit(i)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	return mapped
}

// frontJSON renders a front to its canonical bytes.
func frontJSON(t *testing.T, f *Front) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweep runs Sweep on a clone of c with the given worker count and options.
func sweep(t *testing.T, c *netlist.Circuit, o Options) *Front {
	t.Helper()
	front, err := Sweep(context.Background(), c.Clone(), o)
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// goldenMaxPoints caps the golden sweeps so C6 (the register-dominated heavy
// profile) stays test-sized; endpoints are always kept, which is what the
// golden assertions check.
const goldenMaxPoints = 4

// TestFrontGolden is the sweep's correctness contract on the mapped C2, C6
// and C7 profiles (plain pipelines, justification-heavy single class,
// sharing-heavy 40 classes):
//
//   - the front's minimum period equals the single-point MinPeriod result;
//   - the minimum-period point IS the single-point Retime(MinAreaAtMinPeriod)
//     result, bit for bit;
//   - the front is byte-identical at sweep parallelism 1 and GOMAXPROCS
//     (run under -race this is also the concurrency stress test);
//   - points descend in register count as the period relaxes, and never beat
//     the target period's feasibility envelope.
func TestFrontGolden(t *testing.T) {
	for _, i := range []int{2, 6, 7} {
		i := i
		t.Run(gen.Profiles[i-1].Name, func(t *testing.T) {
			t.Parallel()
			c := mappedProfile(t, i)

			serial := sweep(t, c, Options{Parallelism: 1, MaxPoints: goldenMaxPoints})
			if serial.Schema != FrontSchema {
				t.Fatalf("schema = %q", serial.Schema)
			}

			// Single-point references.
			maOut, maRep, err := core.Retime(c.Clone(), core.Options{Objective: core.MinAreaAtMinPeriod})
			if err != nil {
				t.Fatal(err)
			}
			if serial.MinPeriodPS != maRep.PeriodAfter {
				t.Fatalf("front min period %d, Retime(MinAreaAtMinPeriod) achieved %d",
					serial.MinPeriodPS, maRep.PeriodAfter)
			}
			_, mpRep, err := core.Retime(c.Clone(), core.Options{Objective: core.MinPeriod})
			if err != nil {
				t.Fatal(err)
			}
			// The plain MinPeriod objective agrees unless a §5.2 justification
			// retry re-solved either flow at tightened bounds — the two flows
			// then legitimately settle on different feasible periods (on C6
			// the minperiod vector fails justification and retries to a longer
			// period, while the minarea vector at the original period
			// justifies fine).
			if maRep.Retries == 0 && mpRep.Retries == 0 && serial.MinPeriodPS != mpRep.PeriodAfter {
				t.Fatalf("front min period %d, Retime(MinPeriod) found %d",
					serial.MinPeriodPS, mpRep.PeriodAfter)
			}
			var maBLIF bytes.Buffer
			if err := blif.Write(&maBLIF, maOut); err != nil {
				t.Fatal(err)
			}
			anchor := serial.Points[0]
			if anchor.PeriodPS != maRep.PeriodAfter || anchor.Regs != maRep.RegsAfter {
				t.Fatalf("anchor point (%d ps, %d regs), Retime found (%d, %d)",
					anchor.PeriodPS, anchor.Regs, maRep.PeriodAfter, maRep.RegsAfter)
			}
			if anchor.BLIF != maBLIF.String() {
				t.Fatal("anchor BLIF differs from Retime(MinAreaAtMinPeriod) bit-for-bit")
			}

			// Pareto shape: strictly relaxing period, strictly shrinking area.
			for j := 1; j < len(serial.Points); j++ {
				prev, cur := serial.Points[j-1], serial.Points[j]
				if cur.PeriodPS <= prev.PeriodPS || cur.Regs >= prev.Regs {
					t.Fatalf("points %d..%d not Pareto-ordered: (%d,%d) then (%d,%d)",
						j-1, j, prev.PeriodPS, prev.Regs, cur.PeriodPS, cur.Regs)
				}
			}

			// Determinism across sweep parallelism.
			if gm := runtime.GOMAXPROCS(0); gm != 1 {
				par := sweep(t, c, Options{Parallelism: gm, MaxPoints: goldenMaxPoints})
				if !bytes.Equal(frontJSON(t, serial), frontJSON(t, par)) {
					t.Fatalf("front differs between parallelism 1 and %d", gm)
				}
			}
			par2 := sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints})
			if !bytes.Equal(frontJSON(t, serial), frontJSON(t, par2)) {
				t.Fatal("front differs between parallelism 1 and 2")
			}
		})
	}
}

// TestSweepStoreWarm: a second sweep against the store the first one
// populated serves every point from disk and emits byte-identical output.
func TestSweepStoreWarm(t *testing.T) {
	c := mappedProfile(t, 2)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints, Store: st})
	if cold.StoreHits != 0 {
		t.Fatalf("cold sweep hit the empty store %d times", cold.StoreHits)
	}
	if cold.StoreMisses == 0 {
		t.Fatal("cold sweep recorded no misses")
	}

	warm, err2 := store.Open(dir) // fresh handle: clean counters
	if err2 != nil {
		t.Fatal(err2)
	}
	warmFront := sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints, Store: warm})
	if warmFront.StoreMisses != 0 {
		t.Fatalf("warm sweep missed %d times (hits %d)", warmFront.StoreMisses, warmFront.StoreHits)
	}
	if !bytes.Equal(frontJSON(t, cold), frontJSON(t, warmFront)) {
		t.Fatal("warm front differs from cold front")
	}
	for _, p := range warmFront.Points {
		if !p.FromStore {
			t.Fatalf("warm point at %d ps was re-solved", p.PeriodPS)
		}
	}
}

// corruptAll damages every object file under the store directory.
func corruptAll(t *testing.T, dir string, mangle func([]byte) []byte) int {
	t.Helper()
	n := 0
	err := filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("store has no entries to corrupt")
	}
	return n
}

// TestSweepChaosCorruptStore: with every store entry corrupted — garbage or
// half-written — the sweep silently re-solves and produces exactly the
// no-store front. Wrong answers are impossible; the only cost is a cold run.
func TestSweepChaosCorruptStore(t *testing.T) {
	c := mappedProfile(t, 2)
	want := frontJSON(t, sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints}))

	mangles := map[string]func([]byte) []byte{
		"garbage":      func([]byte) []byte { return []byte("** not json **") },
		"half-written": func(d []byte) []byte { return d[:len(d)/2] },
	}
	for name, mangle := range mangles {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints, Store: st})
			corruptAll(t, dir, mangle)

			st2, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			front := sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints, Store: st2})
			if !bytes.Equal(frontJSON(t, front), want) {
				t.Fatal("front over a corrupted store differs from the fresh-solve front")
			}
			if front.StoreHits != 0 {
				t.Fatalf("sweep served %d points from a fully corrupted store", front.StoreHits)
			}
			if st2.Stats().Corrupt == 0 {
				t.Fatal("store did not count the corrupted entries")
			}
		})
	}
}

// TestSweepChaosFailpoints: with the store.load and store.save sites armed to
// fail, a sweep over a populated store still produces the fresh-solve front —
// injection degrades persistence, never correctness.
func TestSweepChaosFailpoints(t *testing.T) {
	c := mappedProfile(t, 2)
	want := frontJSON(t, sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints}))

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints, Store: st})

	set, err := failpoint.ParseSet("store.load=error(internal);store.save=error(internal)")
	if err != nil {
		t.Fatal(err)
	}
	ctx, release := failpoint.With(context.Background(), set)
	defer release()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	front, err := Sweep(ctx, c.Clone(), Options{Parallelism: 2, MaxPoints: goldenMaxPoints, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frontJSON(t, front), want) {
		t.Fatal("front under injected store failures differs from the fresh-solve front")
	}
	if front.StoreHits != 0 {
		t.Fatalf("sweep hit %d times through a failing store.load", front.StoreHits)
	}
	if st2.Stats().SaveErrors == 0 {
		t.Fatal("store.save injection produced no save errors")
	}
}

// TestSelectPeriods pins the candidate-filtering and subsampling rules.
// TestFrontEngineEquivalence extends the engine-equivalence contract to the
// sweep: every point of the front — computed in parallel on a shared
// Prepared with warm-started probes — must be byte-identical to a fresh,
// independent single-point Retime at that point's period. Core's
// TestEngineEquivalence pins those single-point solves (MinAreaAtMinPeriod
// and MinAreaAtPeriod at the sweep's candidate periods) to the dense W/D
// reference, so together the two tests hold the front to the dense engine.
// C6 is excluded: its single-point solves dominate the package's runtime and
// TestFrontGolden already checks its anchor against Retime.
func TestFrontEngineEquivalence(t *testing.T) {
	for _, i := range []int{2, 7} {
		i := i
		t.Run(gen.Profiles[i-1].Name, func(t *testing.T) {
			t.Parallel()
			c := mappedProfile(t, i)
			front := sweep(t, c, Options{Parallelism: 2, MaxPoints: goldenMaxPoints})
			if len(front.Points) == 0 {
				t.Fatal("empty front")
			}
			for j, p := range front.Points {
				opts := core.Options{Objective: core.MinAreaAtPeriod, TargetPeriod: p.PeriodPS}
				if j == 0 {
					opts = core.Options{Objective: core.MinAreaAtMinPeriod}
				}
				out, rep, err := core.Retime(c.Clone(), opts)
				if err != nil {
					t.Fatal(err)
				}
				var ref bytes.Buffer
				if err := blif.Write(&ref, out); err != nil {
					t.Fatal(err)
				}
				if p.Regs != rep.RegsAfter {
					t.Fatalf("point %d (%d ps): %d regs, single-point Retime found %d",
						j, p.PeriodPS, p.Regs, rep.RegsAfter)
				}
				if p.BLIF != ref.String() {
					t.Fatalf("point %d (%d ps): sweep netlist differs from single-point Retime",
						j, p.PeriodPS)
				}
			}
		})
	}
}

func TestSelectPeriods(t *testing.T) {
	cands := []int64{5, 10, 20, 30, 40, 50}
	got := selectPeriods(cands, 10, 0)
	want := []int64{20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("selectPeriods uncapped = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selectPeriods uncapped = %v, want %v", got, want)
		}
	}

	capped := selectPeriods(cands, 10, 3) // anchor + 2: endpoints of the range
	if len(capped) != 2 || capped[0] != 20 || capped[1] != 50 {
		t.Fatalf("selectPeriods capped = %v, want [20 50]", capped)
	}
	if got := selectPeriods(cands, 10, 1); len(got) != 0 {
		t.Fatalf("selectPeriods anchor-only = %v, want empty", got)
	}
	if got := selectPeriods(cands, 50, 0); len(got) != 0 {
		t.Fatalf("selectPeriods above max candidate = %v, want empty", got)
	}
}

// TestKeysGolden pins the store-key schema for the default options on
// mapped C2: the fingerprint text and the anchor, candidates and point keys.
// Stores written by earlier binaries stay warm only while these bytes hold,
// so a change here is a deliberate schema bump, never a side effect.
func TestKeysGolden(t *testing.T) {
	k, err := newKeys(mappedProfile(t, 2), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const wantFP = "explore-fp/v2 engine=sparse sharing=true justify=true sat=false fwd=false retries=0 budgets=0/0/0/0"
	if string(k.fp) != wantFP {
		t.Fatalf("fingerprint = %q, want %q", k.fp, wantFP)
	}
	for _, tc := range []struct{ name, got, want string }{
		{"anchor", k.anchor(), "9956fddea5bdbf3d8cf61073b941c87680c342d7b0efa99a0a8aad07fcf2cff1"},
		{"candidates", k.candidates(), "ce9baa78513b7463d4e3b22e4426514ae6e8666abb3cb64e780e06cddc9a6885"},
		{"point 7000", k.point(7000), "31c53f9c0572f6e5d35c372f9c7ad8c7dd6b0bda1a70e2dcaa36f87b04152945"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestKeysOptionsDiscriminate requires every option that can change a solved
// point to change the store keys: a sweep under one setting must never be
// served another setting's entries.
func TestKeysOptionsDiscriminate(t *testing.T) {
	c := mappedProfile(t, 2)
	base, err := newKeys(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"sharing", core.Options{DisableSharing: true}},
		{"justify", core.Options{DisableJustify: true}},
		{"fwd", core.Options{ForwardOnly: true}},
		{"retries", core.Options{MaxRetries: 3}},
		{"bdd budget", core.Options{Budgets: core.Budgets{BDDNodes: 1000}}},
		{"sat budget", core.Options{Budgets: core.Budgets{SATConflicts: 1000}}},
		{"flow budget", core.Options{Budgets: core.Budgets{FlowAugmentations: 1000}}},
		{"rounds budget", core.Options{Budgets: core.Budgets{MinAreaRounds: 1000}}},
	} {
		k, err := newKeys(c, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(k.fp, base.fp) || k.anchor() == base.anchor() ||
			k.candidates() == base.candidates() || k.point(7000) == base.point(7000) {
			t.Errorf("%s: store keys do not change with the option (fingerprint %q)", tc.name, k.fp)
		}
	}
}
