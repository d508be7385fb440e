package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/netlist"
)

// testBLIF returns the quickstart circuit (two load-enable registers feeding
// an unbalanced datapath — retiming moves the layer) as BLIF text.
func testBLIF(t *testing.T) string {
	t.Helper()
	c := netlist.New("quickstart")
	a := c.AddInput("a")
	b := c.AddInput("b")
	en := c.AddInput("en")
	clk := c.AddInput("clk")
	r1, q1 := c.AddReg("r1", a, clk)
	r2, q2 := c.AddReg("r2", b, clk)
	c.Regs[r1].EN = en
	c.Regs[r2].EN = en
	_, x := c.AddGate("g1", netlist.And, []netlist.SignalID{q1, q2}, 1_000)
	_, y := c.AddGate("g2", netlist.Xor, []netlist.SignalID{x, a}, 4_000)
	_, z := c.AddGate("g3", netlist.Nor, []netlist.SignalID{y, b}, 4_000)
	c.MarkOutput(z)
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newTestServer starts a server over httptest and registers cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// post submits a retime request and returns the response status and decoded
// body.
func post(t *testing.T, url string, req retimeRequest) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, body
}

func TestSubmitWaitRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: testBLIF(t)})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, body)
	}
	if body["status"] != string(StatusDone) {
		t.Fatalf("job status = %v", body["status"])
	}
	res := body["result"].(map[string]any)
	outBLIF := res["blif"].(string)
	if !strings.Contains(outBLIF, ".model") {
		t.Fatalf("result is not BLIF: %q", outBLIF[:min(len(outBLIF), 80)])
	}
	rep := res["report"].(map[string]any)
	if rep["period_after_ps"].(float64) > rep["period_before_ps"].(float64) {
		t.Errorf("retiming worsened the period: %v -> %v",
			rep["period_before_ps"], rep["period_after_ps"])
	}
	if rep["regs_before"].(float64) != 2 {
		t.Errorf("implausible report: %v", rep)
	}
	// The retimed BLIF must itself parse.
	if _, err := blif.Read(strings.NewReader(outBLIF)); err != nil {
		t.Fatalf("result BLIF does not round-trip: %v", err)
	}
}

func TestSubmitAsyncAndPoll(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, body := post(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)})
	if status != http.StatusAccepted {
		t.Fatalf("status = %d, body %v", status, body)
	}
	id := body["id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jv map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv["status"] == string(StatusDone) {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("done job status code = %d", resp.StatusCode)
			}
			return
		}
		if jv["status"] == string(StatusFailed) {
			t.Fatalf("job failed: %v", jv["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (status %v)", id, jv["status"])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMalformedInputFailsFast(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	status, body := post(t, hs.URL+"/v1/retime", retimeRequest{BLIF: ".model broken\n.wat\n"})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, body %v", status, body)
	}
	eb := body["error"].(map[string]any)
	if eb["code"] != "malformed_input" {
		t.Fatalf("code = %v", eb["code"])
	}
	// Early rejection must not consume queue space or job IDs.
	if n := s.submitted.Load(); n != 0 {
		t.Errorf("malformed submission counted as accepted: %d", n)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, _ := post(t, hs.URL+"/v1/retime", retimeRequest{
		BLIF:    testBLIF(t),
		Options: JobOptions{Objective: "maximize-vibes"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d", status)
	}
	status, _ = post(t, hs.URL+"/v1/retime", retimeRequest{
		BLIF:    testBLIF(t),
		Options: JobOptions{Objective: "min-area-at-period"}, // missing target
	})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d", status)
	}
}

func TestFailpointsGated(t *testing.T) {
	_, hs := newTestServer(t, Config{}) // EnableFailpoints off
	status, body := post(t, hs.URL+"/v1/retime", retimeRequest{
		BLIF:       testBLIF(t),
		Failpoints: "pass.minperiod=panic",
	})
	if status != http.StatusForbidden {
		t.Fatalf("status = %d, body %v", status, body)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	// Run one job so engine trace counters aggregate.
	if status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: testBLIF(t)}); status != 200 {
		t.Fatalf("job failed: %v", body)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		"mcretimed_jobs_submitted 1",
		"mcretimed_jobs_completed 1",
		"mcretimed_queue_depth 0",
		"mcretimed_trace_classes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}

	// readyz flips to 503 once draining.
	if err := s.Shutdown(testCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	// Submissions are rejected while draining.
	status, body := post(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)})
	if status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, body %v", status, body)
	}
}

// TestMetricsSolveCounters pins the process-cumulative solve rows of
// /metrics that perfbench and operators read: after one retime job the
// warm-start hit/miss pair and the cold SPFA start count are exported, and
// the job's probes show up in them.
func TestMetricsSolveCounters(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	if status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: testBLIF(t)}); status != 200 {
		t.Fatalf("job failed: %v", body)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rows := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		rows[f[0]] = v
	}
	for _, name := range []string{
		"mcretimed_solve_warm_hits",
		"mcretimed_solve_warm_misses",
		"mcretimed_solve_spfa_cold_starts",
	} {
		if _, ok := rows[name]; !ok {
			t.Errorf("metrics missing %s in:\n%s", name, data)
		}
	}
	if n := rows["mcretimed_solve_warm_hits"] + rows["mcretimed_solve_warm_misses"]; n < 1 {
		t.Errorf("warm hits + misses = %d after a retime job, want ≥ 1", n)
	}
	if rows["mcretimed_solve_spfa_cold_starts"] < 1 {
		t.Errorf("spfa cold starts = %d after a retime job, want ≥ 1", rows["mcretimed_solve_spfa_cold_starts"])
	}
}

func TestDeadlineExceededJob(t *testing.T) {
	_, hs := newTestServer(t, Config{EnableFailpoints: true})
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{
		BLIF:       testBLIF(t),
		Options:    JobOptions{TimeoutMS: 50},
		Failpoints: "graph.minperiod=sleep(10s)",
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %v", status, body)
	}
	eb := body["error"].(map[string]any)
	if eb["code"] != CodeDeadlineExceeded {
		t.Fatalf("code = %v", eb["code"])
	}
}

// testCtx returns a context that expires after d, cleaned up with the test.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}
