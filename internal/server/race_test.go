package server

// The per-job solve-isolation audit: each solve carries its own probe ladder,
// cut pool and SPFA scratch, built for a single pipeline, so the server
// path — many concurrent core.RetimeCtx runs in one process — must prove
// under -race that no solve state aliases across jobs, and that every
// concurrent run produces the bit-identical result.

import (
	"net/http"
	"sync"
	"testing"
)

func TestConcurrentRetimeThroughServerRace(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	_, hs := newTestServer(t, Config{Workers: 8, QueueSize: 64})
	in := testBLIF(t)

	// One reference run.
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in})
	if status != http.StatusOK {
		t.Fatalf("reference run: %d %v", status, body)
	}
	ref := body["result"].(map[string]any)["blif"].(string)

	const goroutines, iters = 8, 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Alternate the invariant checker so checked solves (the
				// internal/check invariants after every pass) interleave
				// in-process with plain ones.
				opts := JobOptions{CheckInvariants: (g+i)%2 == 0}
				status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in, Options: opts})
				if status != http.StatusOK {
					errs <- body["error"].(map[string]any)["detail"].(string)
					return
				}
				got := body["result"].(map[string]any)["blif"].(string)
				if got != ref {
					errs <- "concurrent result diverged from the reference"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
