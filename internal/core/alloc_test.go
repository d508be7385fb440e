//go:build !race

package core

import (
	"runtime"
	"testing"

	"mcretiming/internal/gen"
)

// retimeAllocLimit is the bytes one Retime of the 16×150 plain/enable
// pipeline may allocate: the measured figure plus 15%. The flow sizes its
// hot structures once and recycles what they drain (DESIGN.md §6); a change
// that makes a layer allocate per step again shows up here long before it
// shows in a wall clock.
const retimeAllocLimit = 13_520_000 * 115 / 100

// TestRetimeAllocatedBytes pins the bytes allocated by one Retime of a deep
// pipeline. The race detector allocates on its own, so the file is skipped
// under -race.
func TestRetimeAllocatedBytes(t *testing.T) {
	c, err := gen.ScalePipeline(1, 16, 150, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Objective: MinAreaAtMinPeriod}
	if _, _, err := Retime(c, opts); err != nil { // first-use set-up out of the count
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Retime(c, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Retime of the 16×150 pipeline allocates %d bytes (limit %d)", got, retimeAllocLimit)
	if got > retimeAllocLimit {
		t.Fatalf("Retime allocated %d bytes, limit %d", got, retimeAllocLimit)
	}
}
