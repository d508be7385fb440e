package server

// The chaos suite drives every advertised failure behavior of the service
// deterministically through internal/failpoint, per-job (context-scoped)
// so concurrent jobs in the same process stay independent:
//
//	(a) a panicking job returns 500 while a concurrent job succeeds
//	(b) a full queue sheds load with 429 + Retry-After and stays bounded
//	(c) a retime or explore job whose only attempt hits a budget error
//	    fails with 503 budget_exceeded: each job runs once, since the engine
//	    degrades every real budget exhaustion itself
//	(d) graceful shutdown drains the in-flight job, checkpoints the queued
//	    ones, and a restarted server resumes them bit-identically
//
// Everything here must hold under -race with no flakes; CI runs it that way.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"
)

func getJob(t *testing.T, base, id string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// waitStatus polls until the job reaches status want (or any terminal state)
// and returns its last view.
func waitStatus(t *testing.T, base, id string, want JobStatus) (int, map[string]any) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body := getJob(t, base, id)
		st, _ := body["status"].(string)
		if st == string(want) || st == string(StatusDone) || st == string(StatusFailed) {
			return code, body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, st, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosPanicIsolation is acceptance (a): one job crashes inside a
// flow pass, a concurrent job on the second worker succeeds, and the
// daemon keeps serving afterwards.
func TestChaosPanicIsolation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, EnableFailpoints: true})
	in := testBLIF(t)

	var wg sync.WaitGroup
	var panicStatus, okStatus int
	var panicBody, okBody map[string]any
	wg.Add(2)
	go func() {
		defer wg.Done()
		panicStatus, panicBody = post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{
			BLIF:       in,
			Failpoints: "pass.minperiod=panic(chaos)",
		})
	}()
	go func() {
		defer wg.Done()
		okStatus, okBody = post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in})
	}()
	wg.Wait()

	if panicStatus != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, body %v", panicStatus, panicBody)
	}
	eb := panicBody["error"].(map[string]any)
	if eb["code"] != "internal" {
		t.Fatalf("panicking job code = %v", eb["code"])
	}
	if okStatus != http.StatusOK || okBody["status"] != string(StatusDone) {
		t.Fatalf("concurrent job: status %d, body %v", okStatus, okBody)
	}
	// The daemon survived: a fresh job still succeeds.
	if st, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in}); st != http.StatusOK {
		t.Fatalf("post-crash job: status %d, body %v", st, body)
	}
}

// TestChaosWorkerPanicIsolation is the server-side variant of (a): the panic
// fires outside the engine's flow, in the worker's own job path, and is
// recovered by the worker-level recover.
func TestChaosWorkerPanicIsolation(t *testing.T) {
	s, hs := newTestServer(t, Config{EnableFailpoints: true})
	in := testBLIF(t)
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{
		BLIF:       in,
		Failpoints: "server.job=panic(worker-chaos)",
	})
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, body %v", status, body)
	}
	if n := s.panics.Load(); n != 1 {
		t.Fatalf("panics counter = %d", n)
	}
	if st, _ := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in}); st != http.StatusOK {
		t.Fatalf("worker died with the job: follow-up status %d", st)
	}
}

// TestChaosQueueFull is acceptance (b): admission control sheds load with
// 429 + Retry-After once the bounded queue is full, and the shed jobs leave
// no state behind.
func TestChaosQueueFull(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:          1,
		QueueSize:        1,
		EnableFailpoints: true,
	})
	in := testBLIF(t)

	// Occupy the single worker with a failpoint-delayed job...
	st, body := post(t, hs.URL+"/v1/retime", retimeRequest{
		BLIF:       in,
		Failpoints: "graph.minperiod=sleep(1s)",
	})
	if st != http.StatusAccepted {
		t.Fatalf("slow job: %d %v", st, body)
	}
	slowID := body["id"].(string)
	waitStatus(t, hs.URL, slowID, StatusRunning)

	// ...fill the queue...
	st, body = post(t, hs.URL+"/v1/retime", retimeRequest{BLIF: in})
	if st != http.StatusAccepted {
		t.Fatalf("queued job: %d %v", st, body)
	}
	queuedID := body["id"].(string)

	// ...and every further submission is shed, boundedly, with Retry-After.
	for i := 0; i < 20; i++ {
		data, _ := json.Marshal(retimeRequest{BLIF: in})
		resp, err := http.Post(hs.URL+"/v1/retime", "application/json",
			bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submission %d: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		resp.Body.Close()
	}
	if got := s.rejected.Load(); got != 20 {
		t.Errorf("rejected = %d, want 20", got)
	}
	// Shed jobs must not leak into the job table (bounded memory).
	tracked := len(s.table.list("", ""))
	if tracked != 2 {
		t.Errorf("job table holds %d entries, want 2", tracked)
	}

	// Both accepted jobs still finish.
	if code, body := waitStatus(t, hs.URL, slowID, StatusDone); code != 200 {
		t.Fatalf("slow job ended %d %v", code, body)
	}
	if code, body := waitStatus(t, hs.URL, queuedID, StatusDone); code != 200 {
		t.Fatalf("queued job ended %d %v", code, body)
	}
}

// TestChaosBudgetFailsOnFirstFiring is acceptance (c): a budget error that
// fires once, on the job's only attempt, fails the job with the
// budget_exceeded body. No second attempt runs, and the job view carries no
// attempt count.
func TestChaosBudgetFailsOnFirstFiring(t *testing.T) {
	_, hs := newTestServer(t, Config{EnableFailpoints: true})
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{
		BLIF:       testBLIF(t),
		Failpoints: "graph.minperiod=1*error(budget)", // fires once, then inert
	})
	checkBudgetExceeded(t, status, body)
}

// TestChaosBudgetFailsOnFirstFiringExplore is acceptance (c) for sweeps.
func TestChaosBudgetFailsOnFirstFiringExplore(t *testing.T) {
	_, hs := newTestServer(t, Config{EnableFailpoints: true})
	status, body := post(t, hs.URL+"/v1/explore?wait=1", retimeRequest{
		BLIF:       testBLIF(t),
		Failpoints: "graph.minperiod=1*error(budget)", // fires once, then inert
	})
	checkBudgetExceeded(t, status, body)
}

// checkBudgetExceeded requires a failed job view: 503 budget_exceeded and no
// job-level "attempts" field.
func checkBudgetExceeded(t *testing.T, status int, body map[string]any) {
	t.Helper()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %v", status, body)
	}
	eb := body["error"].(map[string]any)
	if eb["code"] != "budget_exceeded" {
		t.Fatalf("code = %v", eb["code"])
	}
	if got, ok := body["attempts"]; ok {
		t.Fatalf("job view carries attempts = %v", got)
	}
}

// TestChaosShutdownResume is acceptance (d) and the graceful-shutdown
// satellite: with one worker busy on a failpoint-delayed job and two more
// queued, shutdown completes the in-flight job, checkpoints the queued
// specs, and a restarted server on the same directory resumes them with
// bit-identical output to an uninterrupted control run.
func TestChaosShutdownResume(t *testing.T) {
	in := testBLIF(t)

	// Control: the same spec on an undisturbed server.
	_, control := newTestServer(t, Config{})
	cStatus, cBody := post(t, control.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in})
	if cStatus != http.StatusOK {
		t.Fatalf("control: %d %v", cStatus, cBody)
	}
	controlBLIF := cBody["result"].(map[string]any)["blif"].(string)

	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Config{
		Workers:          1,
		CheckpointDir:    dir,
		EnableFailpoints: true,
	})

	// In-flight job, held open by a failpoint delay.
	st, body := post(t, hs1.URL+"/v1/retime", retimeRequest{
		BLIF:       in,
		Failpoints: "graph.minperiod=sleep(600ms)",
	})
	if st != http.StatusAccepted {
		t.Fatalf("slow job: %d %v", st, body)
	}
	slowID := body["id"].(string)
	// Two queued jobs behind it.
	var queuedIDs []string
	for i := 0; i < 2; i++ {
		st, body := post(t, hs1.URL+"/v1/retime", retimeRequest{BLIF: in})
		if st != http.StatusAccepted {
			t.Fatalf("queued job %d: %d %v", i, st, body)
		}
		queuedIDs = append(queuedIDs, body["id"].(string))
	}
	waitStatus(t, hs1.URL, slowID, StatusRunning)

	if err := s1.Shutdown(testCtx(t, 10*time.Second)); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight job drained to completion.
	if code, body := getJob(t, hs1.URL, slowID); code != 200 || body["status"] != string(StatusDone) {
		t.Fatalf("in-flight job after shutdown: %d %v", code, body)
	}
	// The queued jobs were checkpointed, not run.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("checkpoint dir has %d files, want 2", len(entries))
	}

	// Restart on the same directory: the queued jobs resume and finish
	// bit-identically to the control run.
	s2, hs2 := newTestServer(t, Config{Workers: 1, CheckpointDir: dir})
	for _, id := range queuedIDs {
		code, body := waitStatus(t, hs2.URL, id, StatusDone)
		if code != 200 || body["status"] != string(StatusDone) {
			t.Fatalf("resumed job %s: %d %v", id, code, body)
		}
		got := body["result"].(map[string]any)["blif"].(string)
		if got != controlBLIF {
			t.Errorf("resumed job %s output differs from the uninterrupted run:\n--- control\n%s\n--- resumed\n%s",
				id, controlBLIF, got)
		}
	}
	if n := s2.resumed.Load(); n != 2 {
		t.Errorf("resumed counter = %d, want 2", n)
	}
	// Checkpoint files are consumed on resume.
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("checkpoint dir still has %d files after resume", len(entries))
	}
}

// TestShutdownWithoutCheckpointDir: with no checkpoint directory configured,
// queued jobs fail closed with a canceled error body instead of vanishing.
func TestShutdownWithoutCheckpointDir(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, EnableFailpoints: true})
	in := testBLIF(t)
	st, body := post(t, hs.URL+"/v1/retime", retimeRequest{
		BLIF:       in,
		Failpoints: "graph.minperiod=sleep(400ms)",
	})
	if st != http.StatusAccepted {
		t.Fatalf("slow job: %d %v", st, body)
	}
	slowID := body["id"].(string)
	st, body = post(t, hs.URL+"/v1/retime", retimeRequest{BLIF: in})
	if st != http.StatusAccepted {
		t.Fatalf("queued job: %d %v", st, body)
	}
	queuedID := body["id"].(string)
	waitStatus(t, hs.URL, slowID, StatusRunning)

	if err := s.Shutdown(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	code, jb := getJob(t, hs.URL, queuedID)
	if code != http.StatusServiceUnavailable || jb["status"] != string(StatusFailed) {
		t.Fatalf("queued job after shutdown: %d %v", code, jb)
	}
	if eb := jb["error"].(map[string]any); eb["code"] != CodeCanceled {
		t.Fatalf("code = %v", eb["code"])
	}
}
