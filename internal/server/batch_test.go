package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/netlist"
	"mcretiming/internal/tenant"
)

// batchBLIF builds a small retimable circuit whose model name (and one gate
// delay) vary with i, so distinct i give distinct store keys and distinct
// results.
func batchBLIF(t testing.TB, i int) string {
	t.Helper()
	c := netlist.New(fmt.Sprintf("batch-%03d", i))
	a := c.AddInput("a")
	b := c.AddInput("b")
	clk := c.AddInput("clk")
	_, q1 := c.AddReg("r1", a, clk)
	_, q2 := c.AddReg("r2", b, clk)
	_, x := c.AddGate("g1", netlist.And, []netlist.SignalID{q1, q2}, 1_000)
	_, y := c.AddGate("g2", netlist.Xor, []netlist.SignalID{x, a}, 3_000+int64(i%7)*500)
	_, z := c.AddGate("g3", netlist.Nor, []netlist.SignalID{y, b}, 4_000)
	c.MarkOutput(z)
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postJSON posts body with extra headers and returns status, parsed body, and
// response headers.
func postJSON(t *testing.T, url string, body any, hdr map[string]string) (int, map[string]any, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out, resp.Header
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// waitBatchDone polls the batch aggregate until done == total.
func waitBatchDone(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		_, view := getJSON(t, base+"/v1/batch/"+id)
		if int(view["done"].(float64)) == int(view["total"].(float64)) {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never finished: %v", id, view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readEvents drains a batch event stream (optionally from ?after=) until
// batch_done or EOF, returning the decoded lines.
func readEvents(t *testing.T, base, id string, after int) []map[string]any {
	t.Helper()
	url := base + "/v1/batch/" + id + "/events"
	if after >= 0 {
		url += fmt.Sprintf("?after=%d", after)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status = %d", resp.StatusCode)
	}
	var events []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
		if ev["event"] == "batch_done" {
			break
		}
	}
	return events
}

func TestBatchRoundTripAndEvents(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	req := batchRequest{Jobs: []batchJobSpec{
		{Kind: "retime", BLIF: batchBLIF(t, 0)},
		{BLIF: batchBLIF(t, 1)}, // empty kind = retime
		{Kind: "explore", BLIF: batchBLIF(t, 2), Options: JobOptions{MaxPoints: 2}},
	}}
	status, body, _ := postJSON(t, hs.URL+"/v1/batch", req, map[string]string{tenant.Header: "acme"})
	if status != http.StatusAccepted {
		t.Fatalf("batch submit = %d, body %v", status, body)
	}
	id := body["id"].(string)
	if !strings.HasPrefix(id, "batch-") || int(body["total"].(float64)) != 3 {
		t.Fatalf("batch accept body: %v", body)
	}
	view := waitBatchDone(t, hs.URL, id, 30*time.Second)
	if view["tenant"] != "acme" {
		t.Errorf("batch tenant = %v", view["tenant"])
	}
	counts := view["counts"].(map[string]any)
	if int(counts["done"].(float64)) != 3 {
		t.Fatalf("batch counts = %v", counts)
	}
	jobs := view["jobs"].([]any)
	if len(jobs) != 3 {
		t.Fatalf("batch lists %d jobs", len(jobs))
	}
	for _, j := range jobs {
		jm := j.(map[string]any)
		if jm["tenant"] != "acme" || jm["batch"] != id {
			t.Errorf("member view missing tenant/batch: %v", jm)
		}
	}

	// The event log replays completely: one queued + one dispatched + one
	// done per member, then batch_done, seq contiguous from 0.
	events := readEvents(t, hs.URL, id, -1)
	if len(events) != 10 {
		t.Fatalf("got %d events, want 10: %v", len(events), events)
	}
	perKind := map[string]int{}
	for i, ev := range events {
		if int(ev["seq"].(float64)) != i {
			t.Fatalf("seq gap at %d: %v", i, ev)
		}
		if ev["batch"] != id {
			t.Fatalf("event for wrong batch: %v", ev)
		}
		perKind[ev["event"].(string)]++
	}
	if perKind["queued"] != 3 || perKind["dispatched"] != 3 || perKind["done"] != 3 || perKind["batch_done"] != 1 {
		t.Fatalf("event mix = %v", perKind)
	}
	last := events[len(events)-1]
	if last["event"] != "batch_done" || int(last["total"].(float64)) != 3 {
		t.Fatalf("last event = %v", last)
	}
	// Done events for the retime members carry the result digest.
	for _, ev := range events {
		if ev["event"] == "done" && ev["points"] == nil {
			if ev["period_ps"] == nil || ev["regs"] == nil {
				t.Errorf("done event missing digest: %v", ev)
			}
		}
	}

	// Replay from the middle: ?after=N returns exactly the tail.
	tail := readEvents(t, hs.URL, id, 4)
	if len(tail) != len(events)-5 {
		t.Fatalf("after=4 returned %d events, want %d", len(tail), len(events)-5)
	}
	if int(tail[0]["seq"].(float64)) != 5 {
		t.Fatalf("tail starts at seq %v", tail[0]["seq"])
	}

	// Per-member results are byte-identical to single-job submissions of the
	// same specs.
	for i, j := range jobs {
		jm := j.(map[string]any)
		_, full := getJSON(t, hs.URL+"/v1/jobs/"+jm["id"].(string))
		opts := JobOptions{}
		endpoint := "/v1/retime"
		if jm["kind"] == "explore" {
			opts = JobOptions{MaxPoints: 2}
			endpoint = "/v1/explore"
		}
		idx := i // members sorted by ID = submission order
		st, single, _ := postJSON(t, hs.URL+endpoint+"?wait=1",
			retimeRequest{BLIF: batchBLIF(t, idx), Options: opts}, nil)
		if st != http.StatusOK {
			t.Fatalf("single submit %d = %d: %v", idx, st, single)
		}
		if !bytes.Equal(resultBytes(t, full), resultBytes(t, single)) {
			t.Errorf("member %d result differs from single-job submission", idx)
		}
	}
}

func TestBatchEventsStreamReconnect(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, EnableFailpoints: true})
	req := batchRequest{Jobs: []batchJobSpec{
		{BLIF: batchBLIF(t, 0), Failpoints: "server.job=sleep(150ms)"},
		{BLIF: batchBLIF(t, 1), Failpoints: "server.job=sleep(150ms)"},
		{BLIF: batchBLIF(t, 2), Failpoints: "server.job=sleep(150ms)"},
	}}
	status, body, _ := postJSON(t, hs.URL+"/v1/batch", req, nil)
	if status != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %v", status, body)
	}
	id := body["id"].(string)

	// First connection: read a prefix of the live stream, then drop it.
	ctx, cancel := context.WithCancel(context.Background())
	reqStream, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/batch/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(reqStream)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	lastSeq := -1
	for i := 0; i < 5 && sc.Scan(); i++ {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		lastSeq = int(ev["seq"].(float64))
	}
	cancel()
	resp.Body.Close()
	if lastSeq < 0 {
		t.Fatal("first connection saw no events")
	}

	// Reconnect from where we left off: the tail must continue at lastSeq+1
	// with no gap and no duplicate, through batch_done.
	tail := readEvents(t, hs.URL, id, lastSeq)
	if len(tail) == 0 {
		t.Fatal("reconnect saw no events")
	}
	if got := int(tail[0]["seq"].(float64)); got != lastSeq+1 {
		t.Fatalf("reconnect started at seq %d, want %d", got, lastSeq+1)
	}
	for i := 1; i < len(tail); i++ {
		if int(tail[i]["seq"].(float64)) != int(tail[i-1]["seq"].(float64))+1 {
			t.Fatalf("gap in reconnected stream at %v", tail[i])
		}
	}
	if tail[len(tail)-1]["event"] != "batch_done" {
		t.Fatalf("stream did not end with batch_done: %v", tail[len(tail)-1])
	}
}

func TestQuotaRejectionDistinctFromQueueFull(t *testing.T) {
	cfg := Config{
		Workers:          1,
		QueueSize:        64,
		EnableFailpoints: true,
		Tenants: tenant.Config{Tenants: map[string]tenant.Limits{
			"capped": {MaxQueued: 2, MaxBatch: 3},
		}},
	}
	_, hs := newTestServer(t, cfg)
	hdr := map[string]string{tenant.Header: "capped"}
	// Occupy the worker, then fill capped's queued quota.
	slow := retimeRequest{BLIF: testBLIF(t), Failpoints: "server.job=sleep(3s)"}
	if st, b, _ := postJSON(t, hs.URL+"/v1/retime", slow, hdr); st != http.StatusAccepted {
		t.Fatalf("slow submit = %d: %v", st, b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for { // wait until the slow job is dispatched (leaves the queued count)
		_, jobs := getJSON(t, hs.URL+"/v1/jobs?status=running&tenant=capped")
		if int(jobs["count"].(float64)) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if st, b, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, hdr); st != http.StatusAccepted {
			t.Fatalf("fill %d = %d: %v", i, st, b)
		}
	}
	// Third queued job exceeds max_queued=2: 429 with the quota body and its
	// own Retry-After, NOT the queue_full shape.
	st, body, respHdr := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, hdr)
	if st != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d: %v", st, body)
	}
	eb := body["error"].(map[string]any)
	if eb["code"] != CodeQuotaExceeded || eb["tenant"] != "capped" || int(eb["limit"].(float64)) != 2 {
		t.Fatalf("quota error body = %v", eb)
	}
	if respHdr.Get("Retry-After") != "5" {
		t.Errorf("quota Retry-After = %q, want 5", respHdr.Get("Retry-After"))
	}
	// Another tenant is not affected by capped's quota.
	if st, b, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, nil); st != http.StatusAccepted {
		t.Fatalf("default-tenant submit = %d: %v", st, b)
	}
	// An oversize batch is refused whole with the max_batch limit.
	big := batchRequest{Jobs: []batchJobSpec{
		{BLIF: batchBLIF(t, 0)}, {BLIF: batchBLIF(t, 1)},
		{BLIF: batchBLIF(t, 2)}, {BLIF: batchBLIF(t, 3)},
	}}
	st, body, _ = postJSON(t, hs.URL+"/v1/batch", big, hdr)
	if st != http.StatusTooManyRequests {
		t.Fatalf("oversize batch = %d: %v", st, body)
	}
	eb = body["error"].(map[string]any)
	if eb["code"] != CodeQuotaExceeded || int(eb["limit"].(float64)) != 3 {
		t.Fatalf("batch quota body = %v", eb)
	}
}

func TestInvalidTenantHeader(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	st, body, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)},
		map[string]string{tenant.Header: "no spaces allowed"})
	if st != http.StatusBadRequest {
		t.Fatalf("invalid tenant = %d: %v", st, body)
	}
}

func TestIdempotencyKeyReplayAndConflict(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	req := retimeRequest{BLIF: testBLIF(t)}
	hdr := map[string]string{"Idempotency-Key": "retry-123"}
	st1, b1, _ := postJSON(t, hs.URL+"/v1/retime", req, hdr)
	if st1 != http.StatusAccepted {
		t.Fatalf("first submit = %d: %v", st1, b1)
	}
	id := b1["id"].(string)
	// Same key + same body: replayed, same job, no second admission.
	_, b2, h2 := postJSON(t, hs.URL+"/v1/retime", req, hdr)
	if b2["id"] != id {
		t.Fatalf("replay returned a different job: %v vs %v", b2["id"], id)
	}
	if h2.Get("Idempotency-Replayed") != "true" {
		t.Errorf("replay missing Idempotency-Replayed header")
	}
	// Same key + different body: 409, nothing admitted.
	st3, b3, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: batchBLIF(t, 9)}, hdr)
	if st3 != http.StatusConflict {
		t.Fatalf("conflicting reuse = %d: %v", st3, b3)
	}
	// A different tenant may use the same key independently.
	st4, _, _ := postJSON(t, hs.URL+"/v1/retime", req,
		map[string]string{"Idempotency-Key": "retry-123", tenant.Header: "other"})
	if st4 != http.StatusAccepted {
		t.Fatalf("other-tenant same key = %d", st4)
	}

	// Batches: the whole batch replays under its key.
	batch := batchRequest{Jobs: []batchJobSpec{{BLIF: batchBLIF(t, 0)}, {BLIF: batchBLIF(t, 1)}}}
	bhdr := map[string]string{"Idempotency-Key": "batch-retry-1"}
	st5, b5, _ := postJSON(t, hs.URL+"/v1/batch", batch, bhdr)
	if st5 != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %v", st5, b5)
	}
	_, b6, h6 := postJSON(t, hs.URL+"/v1/batch", batch, bhdr)
	if b6["id"] != b5["id"] {
		t.Fatalf("batch replay returned %v, want %v", b6["id"], b5["id"])
	}
	if h6.Get("Idempotency-Replayed") != "true" {
		t.Errorf("batch replay missing header")
	}
}

func TestJobsPagination(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueSize: 64})
	var want []string
	for i := 0; i < 7; i++ {
		st, b, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: batchBLIF(t, i)}, nil)
		if st != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, st)
		}
		want = append(want, b["id"].(string))
	}
	// Page through with limit=3: 3+3+1, no gaps, no duplicates, stable
	// (queued_at, id) order == submission order here.
	var got []string
	cursor := ""
	pages := 0
	for {
		url := hs.URL + "/v1/jobs?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		_, page := getJSON(t, url)
		for _, j := range page["jobs"].([]any) {
			got = append(got, j.(map[string]any)["id"].(string))
		}
		pages++
		nc, _ := page["next_cursor"].(string)
		if nc == "" {
			break
		}
		cursor = nc
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages != 3 {
		t.Errorf("paged in %d pages, want 3", pages)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged IDs %v != submitted %v", got, want)
	}
	// Malformed cursor and limit are 400s.
	if resp, err := http.Get(hs.URL + "/v1/jobs?cursor=garbage"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage cursor status = %v", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(hs.URL + "/v1/jobs?limit=zero"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status = %v", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

func TestAutoscaleSignals(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, EnableFailpoints: true})
	// One slow job in flight plus three queued: outstanding=4, slots=1.
	slow := retimeRequest{BLIF: testBLIF(t), Failpoints: "server.job=sleep(2s)"}
	if st, _, _ := postJSON(t, hs.URL+"/v1/retime", slow, nil); st != http.StatusAccepted {
		t.Fatal("slow submit failed")
	}
	for i := 0; i < 3; i++ {
		if st, _, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: batchBLIF(t, i)},
			map[string]string{tenant.Header: "scaleme"}); st != http.StatusAccepted {
			t.Fatal("queued submit failed")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, view := getJSON(t, hs.URL+"/v1/cluster/autoscale")
		queued := int(view["queued_total"].(float64))
		inflight := int(view["in_flight"].(float64))
		if queued+inflight == 4 && inflight == 1 {
			if got := int(view["desired_workers"].(float64)); got != 4 {
				t.Fatalf("desired_workers = %d, want 4 (outstanding 4 / 1 slot)", got)
			}
			tenants := view["tenants"].([]any)
			var found bool
			for _, tv := range tenants {
				tm := tv.(map[string]any)
				if tm["tenant"] == "scaleme" {
					found = true
					if int(tm["queued"].(float64)) != 3 {
						t.Errorf("scaleme queued = %v", tm["queued"])
					}
					if tm["oldest_queued_age_ms"] == nil {
						t.Errorf("scaleme has no oldest_queued_age_ms: %v", tm)
					}
				}
			}
			if !found {
				t.Fatalf("tenant scaleme missing from %v", tenants)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("autoscale never saw 1 in-flight + 3 queued: %v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTenantsFileHotReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":{"t1":{"max_queued":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{Workers: 1, EnableFailpoints: true, TenantsFile: path})
	hdr := map[string]string{tenant.Header: "t1"}
	// Occupy the worker so submissions stay queued against the quota.
	if st, _, _ := postJSON(t, hs.URL+"/v1/retime",
		retimeRequest{BLIF: testBLIF(t), Failpoints: "server.job=sleep(3s)"}, nil); st != http.StatusAccepted {
		t.Fatal("slow submit failed")
	}
	if st, _, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, hdr); st != http.StatusAccepted {
		t.Fatal("first queued submit failed")
	}
	if st, body, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, hdr); st != http.StatusTooManyRequests {
		t.Fatalf("over-quota = %d: %v", st, body)
	}
	// Loosen the quota on disk and hot-reload (what SIGHUP triggers).
	if err := os.WriteFile(path, []byte(`{"tenants":{"t1":{"max_queued":10}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadTenants(); err != nil {
		t.Fatal(err)
	}
	if st, body, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, hdr); st != http.StatusAccepted {
		t.Fatalf("post-reload submit = %d: %v", st, body)
	}
	// A broken file must not clobber the running table.
	if err := os.WriteFile(path, []byte(`{nope`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadTenants(); err == nil {
		t.Fatal("ReloadTenants accepted garbage")
	}
	if st, _, _ := postJSON(t, hs.URL+"/v1/retime", retimeRequest{BLIF: testBLIF(t)}, hdr); st != http.StatusAccepted {
		t.Fatal("running table was clobbered by a bad reload")
	}
}

// TestBatchFairnessNoStarvation is the PR 10 acceptance property: tenants A
// (weight 1, 200-job batch) and B (weight 1, 5-job batch) submitted
// together; B's last job must complete before A's queue drains below 50%,
// and every batched result must be byte-identical to the same spec submitted
// alone.
func TestBatchFairnessNoStarvation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2, QueueSize: 1024, EnableFailpoints: true})
	const aJobs, bJobs, distinct = 200, 5, 8

	// Each member sleeps ~10ms so both batches stay backlogged while the
	// scheduler interleaves them; the sleep does not touch the result bytes.
	aReq := batchRequest{}
	for i := 0; i < aJobs; i++ {
		aReq.Jobs = append(aReq.Jobs, batchJobSpec{BLIF: batchBLIF(t, i%distinct), Failpoints: "server.job=sleep(10ms)"})
	}
	bReq := batchRequest{}
	for i := 0; i < bJobs; i++ {
		bReq.Jobs = append(bReq.Jobs, batchJobSpec{BLIF: batchBLIF(t, i%distinct), Failpoints: "server.job=sleep(10ms)"})
	}
	st, aBody, _ := postJSON(t, hs.URL+"/v1/batch", aReq, map[string]string{tenant.Header: "tenant-a"})
	if st != http.StatusAccepted {
		t.Fatalf("batch A = %d: %v", st, aBody)
	}
	st, bBody, _ := postJSON(t, hs.URL+"/v1/batch", bReq, map[string]string{tenant.Header: "tenant-b"})
	if st != http.StatusAccepted {
		t.Fatalf("batch B = %d: %v", st, bBody)
	}
	aID, bID := aBody["id"].(string), bBody["id"].(string)

	// When B's last job lands, snapshot A's completion: under DRR both
	// tenants dispatch ~alternately, so A must still have well over half its
	// batch outstanding — a FIFO would have run ~all of A first.
	waitBatchDone(t, hs.URL, bID, 120*time.Second)
	_, aView := getJSON(t, hs.URL+"/v1/batch/"+aID)
	aDone := int(aView["done"].(float64))
	if aDone >= aJobs/2 {
		t.Fatalf("starvation: %d/%d of A finished before B's 5-job batch completed", aDone, aJobs)
	}
	t.Logf("fairness: B finished with A at %d/%d done", aDone, aJobs)

	aFinal := waitBatchDone(t, hs.URL, aID, 300*time.Second)
	counts := aFinal["counts"].(map[string]any)
	if int(counts["done"].(float64)) != aJobs {
		t.Fatalf("batch A counts = %v", counts)
	}

	// Byte-identity: each distinct circuit's batched result matches a lone
	// submission bit for bit (all members are instances of the 8 circuits).
	singles := make(map[int][]byte, distinct)
	for i := 0; i < distinct; i++ {
		st, single, _ := postJSON(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: batchBLIF(t, i)}, nil)
		if st != http.StatusOK {
			t.Fatalf("single %d = %d", i, st)
		}
		singles[i] = resultBytes(t, single)
	}
	checkMembers := func(view map[string]any) {
		for _, j := range view["jobs"].([]any) {
			jm := j.(map[string]any)
			_, full := getJSON(t, hs.URL+"/v1/jobs/"+jm["id"].(string))
			spec := full["result"]
			if spec == nil {
				t.Fatalf("member %v has no result", jm["id"])
			}
		}
	}
	checkMembers(aFinal)
	// Index members back to their source circuit by submission order (IDs
	// are assigned in order within the batch).
	for bi, view := range map[string]map[string]any{aID: aFinal} {
		jobs := view["jobs"].([]any)
		for idx, j := range jobs {
			jm := j.(map[string]any)
			_, full := getJSON(t, hs.URL+"/v1/jobs/"+jm["id"].(string))
			if !bytes.Equal(resultBytes(t, full), singles[idx%distinct]) {
				t.Fatalf("batch %s member %d differs from its single-job run", bi, idx)
			}
		}
	}
	bFinal := waitBatchDone(t, hs.URL, bID, 10*time.Second)
	jobs := bFinal["jobs"].([]any)
	for idx, j := range jobs {
		jm := j.(map[string]any)
		_, full := getJSON(t, hs.URL+"/v1/jobs/"+jm["id"].(string))
		if !bytes.Equal(resultBytes(t, full), singles[idx%distinct]) {
			t.Fatalf("batch B member %d differs from its single-job run", idx)
		}
	}
}
