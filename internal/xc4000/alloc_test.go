//go:build !race

package xc4000_test

import (
	"runtime"
	"testing"

	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// TestMapAllocations pins what one Map of C6 and one remap of its retiming
// allocate: the measured figures plus 15%. Map keeps its per-call tables
// flat and builds the mapped circuit into tables sized once, so nearly every
// allocation left is a generated signal name of the result; a change that
// brings back a map, a slice per cone or a slice per gate shows here. The
// race detector allocates on its own, so the file is skipped under -race.
func TestMapAllocations(t *testing.T) {
	c, err := gen.Circuit(6)
	if err != nil {
		t.Fatal(err)
	}
	first := xc4000.DecomposeSyncResets(c)
	mapped, err := xc4000.Map(first)
	if err != nil {
		t.Fatal(err)
	}
	retimed, _, err := core.Retime(mapped, core.Options{Objective: core.MinAreaAtMinPeriod})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		in            *netlist.Circuit
		allocs, bytes uint64
	}{
		{"map", first, 1155, 481_696},
		{"remap", retimed, 1095, 601_792},
	} {
		allocs := uint64(testing.AllocsPerRun(3, func() {
			if _, err := xc4000.Map(tc.in); err != nil {
				t.Fatal(err)
			}
		}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := xc4000.Map(tc.in); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s of C6: %d allocations, %d bytes", tc.name, allocs, bytes)
		if limit := tc.allocs * 115 / 100; allocs > limit {
			t.Errorf("%s of C6: %d allocations, limit %d", tc.name, allocs, limit)
		}
		if limit := tc.bytes * 115 / 100; bytes > limit {
			t.Errorf("%s of C6: %d bytes allocated, limit %d", tc.name, bytes, limit)
		}
	}
}
