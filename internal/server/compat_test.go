package server

// Wire compatibility with job specs written while JobOptions still carried an
// "engine" field ("auto", "sparse", "dense" or "arrival") or a "sat_justify"
// flag. Decoding ignores both, so checkpoints, HA snapshots and live
// requests that carry them keep working — and because there is one solve
// core and one justification order (BDD first, SAT on escalation), they
// return exactly the bytes a spec without them returns. The same holds for
// "parallelism" on a retime job: the solve is serial, so the field no longer
// reaches the result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcretiming/internal/blif"
	"mcretiming/internal/gen"
	"mcretiming/internal/xc4000"
)

// legacyJob is one job of a pre-removal spec: its kind and its options.
type legacyJob struct {
	kind    string
	options map[string]any
}

// retiredEngineJobs carry a retired engine token: one retime job per token
// plus an explore job.
var retiredEngineJobs = []legacyJob{
	{KindRetime, map[string]any{"engine": "dense"}},
	{KindRetime, map[string]any{"engine": "arrival"}},
	{KindRetime, map[string]any{"engine": "auto"}},
	{KindExplore, map[string]any{"engine": "dense"}},
}

// satJustifyJobs carry the retired "sat_justify": true, which once made SAT
// the primary justification backend and changed the explore fingerprint.
var satJustifyJobs = []legacyJob{
	{KindRetime, map[string]any{"sat_justify": true}},
	{KindExplore, map[string]any{"sat_justify": true}},
}

// legacySpecs returns job specs in the pre-removal format, one per job, on
// the test circuit. The map gives each job ID's kind.
func legacySpecs(t *testing.T, jobs []legacyJob) (map[string]string, []map[string]any) {
	t.Helper()
	in := testBLIF(t)
	kinds := map[string]string{}
	var specs []map[string]any
	for i, j := range jobs {
		id := fmt.Sprintf("job-%06d", i+1)
		kinds[id] = j.kind
		specs = append(specs, map[string]any{"id": id, "kind": j.kind, "blif": in, "options": j.options})
	}
	return kinds, specs
}

// controlResults solves the test circuit as a retime and as an explore job
// on an undisturbed server, with no engine field, and returns each job's
// result JSON by kind.
func controlResults(t *testing.T) map[string][]byte {
	t.Helper()
	_, hs := newTestServer(t, Config{})
	out := map[string][]byte{}
	for kind, path := range map[string]string{KindRetime: "/v1/retime?wait=1", KindExplore: "/v1/explore?wait=1"} {
		status, body := post(t, hs.URL+path, retimeRequest{BLIF: testBLIF(t)})
		if status != http.StatusOK {
			t.Fatalf("control %s: %d %v", path, status, body)
		}
		out[kind] = resultJSON(t, body)
	}
	return out
}

// resultJSON re-encodes a job view's result object.
func resultJSON(t *testing.T, view map[string]any) []byte {
	t.Helper()
	data, err := json.Marshal(view["result"])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertLegacyJobsMatch waits for every legacy job on base and compares its
// result with the control result of its kind.
func assertLegacyJobsMatch(t *testing.T, base string, kinds map[string]string, want map[string][]byte) {
	t.Helper()
	for id, kind := range kinds {
		code, view := waitStatus(t, base, id, StatusDone)
		if code != http.StatusOK || view["status"] != string(StatusDone) {
			t.Fatalf("legacy job %s: code %d, view %v", id, code, view)
		}
		if got := resultJSON(t, view); !bytes.Equal(got, want[kind]) {
			t.Fatalf("legacy job %s: result differs from a fresh solve:\n%s\nvs\n%s", id, got, want[kind])
		}
	}
}

// TestLegacyEngineCheckpointResumes: checkpoints carrying a retired engine
// token resume on a restarted server, byte-identical to a fresh solve.
func TestLegacyEngineCheckpointResumes(t *testing.T) {
	assertCheckpointResumes(t, retiredEngineJobs)
}

// TestLegacySATJustifyCheckpointResumes: checkpoints carrying
// "sat_justify": true resume byte-identical to a fresh solve without it.
func TestLegacySATJustifyCheckpointResumes(t *testing.T) {
	assertCheckpointResumes(t, satJustifyJobs)
}

// assertCheckpointResumes writes jobs as checkpoint files, restarts a server
// on them, and requires every resumed job to match the control result.
func assertCheckpointResumes(t *testing.T, jobs []legacyJob) {
	t.Helper()
	want := controlResults(t)
	kinds, specs := legacySpecs(t, jobs)
	dir := t.TempDir()
	for _, spec := range specs {
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, spec["id"].(string)+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, hs := newTestServer(t, Config{CheckpointDir: dir, Logf: quiet})
	assertLegacyJobsMatch(t, hs.URL, kinds, want)
	if n := metric(t, hs.URL, "checkpoint_errors"); n != 0 {
		t.Fatalf("checkpoint_errors = %d, want 0", n)
	}
}

// TestLegacyEngineReplicatedSnapshot: an HA snapshot carrying a retired
// engine token installs on a standby, and the jobs resume at takeover
// byte-identical to a fresh solve.
func TestLegacyEngineReplicatedSnapshot(t *testing.T) {
	assertSnapshotResumes(t, retiredEngineJobs)
}

// TestLegacySATJustifyReplicatedSnapshot: an HA snapshot carrying
// "sat_justify": true resumes at takeover byte-identical to a fresh solve
// without it.
func TestLegacySATJustifyReplicatedSnapshot(t *testing.T) {
	assertSnapshotResumes(t, satJustifyJobs)
}

// assertSnapshotResumes installs jobs on a standby as a replicated snapshot,
// takes over, and requires every job to match the control result.
func assertSnapshotResumes(t *testing.T, jobs []legacyJob) {
	t.Helper()
	want := controlResults(t)
	kinds, specs := legacySpecs(t, jobs)
	raw, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{Logf: quiet})
	if n, err := s.applyReplicatedJobs(raw); err != nil || n != len(specs) {
		t.Fatalf("applyReplicatedJobs = %d, %v; want %d, nil", n, err, len(specs))
	}
	s.takeover(1)
	assertLegacyJobsMatch(t, hs.URL, kinds, want)
}

// TestLegacyEngineRequestAccepted: a live request carrying an engine field,
// or a retime request carrying a parallelism, is accepted and returns the
// same bytes as one without it.
func TestLegacyEngineRequestAccepted(t *testing.T) {
	want := controlResults(t)
	_, hs := newTestServer(t, Config{})
	for _, opts := range []map[string]any{
		{"engine": "auto"}, {"engine": "sparse"}, {"engine": "dense"}, {"engine": "arrival"},
		{"parallelism": 4},
	} {
		assertRequestMatches(t, hs.URL, legacyJob{KindRetime, opts}, want)
	}
}

// TestLegacySATJustifyRequestAccepted: live retime and explore requests
// carrying "sat_justify": true are accepted and return the same bytes as
// requests without it.
func TestLegacySATJustifyRequestAccepted(t *testing.T) {
	want := controlResults(t)
	_, hs := newTestServer(t, Config{})
	for _, j := range satJustifyJobs {
		assertRequestMatches(t, hs.URL, j, want)
	}
}

// assertRequestMatches submits j as a live waiting request and compares its
// result with the control result of its kind.
func assertRequestMatches(t *testing.T, base string, j legacyJob, want map[string][]byte) {
	t.Helper()
	path := map[string]string{KindRetime: "/v1/retime?wait=1", KindExplore: "/v1/explore?wait=1"}[j.kind]
	data, err := json.Marshal(map[string]any{"blif": testBLIF(t), "options": j.options})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var view map[string]any
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s options %v: status %d, body %v", path, j.options, resp.StatusCode, view)
	}
	if got := resultJSON(t, view); !bytes.Equal(got, want[j.kind]) {
		t.Fatalf("%s options %v: result differs from a request without them:\n%s\nvs\n%s", path, j.options, got, want[j.kind])
	}
}

// TestReportAttemptsOptional pins the report's "attempts" field. A retime
// result lists one attempt per pass through the §5.2 re-retiming loop, the
// last one at the reported period. The field is optional: a result recorded
// before it existed decodes without it and re-encodes byte for byte.
func TestReportAttemptsOptional(t *testing.T) {
	// Mapped C9 relocates, conflicts and re-solves at a higher period.
	var c9 *gen.Profile
	for i := range gen.Profiles {
		if gen.Profiles[i].Name == "C9" {
			c9 = &gen.Profiles[i]
		}
	}
	c, err := c9.Build()
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c))
	if err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	if err := blif.Write(&in, mapped); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{})
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in.String()})
	if status != http.StatusOK {
		t.Fatalf("retime: %d %v", status, body)
	}
	var res struct {
		Report ReportSummary `json:"report"`
	}
	if err := json.Unmarshal(resultJSON(t, body), &res); err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Retries < 1 || len(rep.Attempts) != rep.Retries+1 {
		t.Fatalf("%d retries, %d attempts; want at least one retry and one attempt more", rep.Retries, len(rep.Attempts))
	}
	if last := rep.Attempts[len(rep.Attempts)-1]; last.PeriodAfterPS != rep.PeriodAfterPS {
		t.Errorf("last attempt at %d ps, report at %d ps", last.PeriodAfterPS, rep.PeriodAfterPS)
	}
	for i, a := range rep.Attempts[:len(rep.Attempts)-1] {
		if a.JustifyConflicts == 0 {
			t.Errorf("attempt %d was retried without a conflict: %+v", i, a)
		}
	}

	old := []byte(`{"classes":2,"period_before_ps":5000,"period_after_ps":4000,"regs_before":2,"regs_after":1,"steps_moved":1,"steps_possible":3,"retries":0}`)
	var rs ReportSummary
	if err := json.Unmarshal(old, &rs); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Attempts != nil || !bytes.Equal(again, old) {
		t.Fatalf("report without attempts re-encodes as %s", again)
	}
}

// TestJobViewFromStoreOptional pins the job view's "from_store" field: it is
// true on a retime job answered from the result store, and absent, not
// false, on every solved job (with or without a store), so clients written
// before the field existed see the views they always saw.
func TestJobViewFromStoreOptional(t *testing.T) {
	viewKeys := func(base, id string) map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var view map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return view
	}
	submit := func(base, path string) string {
		t.Helper()
		status, body := post(t, base+path, retimeRequest{BLIF: testBLIF(t)})
		if status != http.StatusOK {
			t.Fatalf("%s: %d %v", path, status, body)
		}
		return body["id"].(string)
	}

	_, plain := newTestServer(t, Config{})
	_, stored := newTestServer(t, Config{StoreDir: t.TempDir()})
	// The miss that fills the store; its save follows the answer.
	if v, ok := viewKeys(stored.URL, submit(stored.URL, "/v1/retime?wait=1"))["from_store"]; ok {
		t.Fatalf("store miss's view carries from_store = %s", v)
	}
	waitMetric(t, stored.URL, "store_saves", 1)
	for _, solved := range []struct{ base, path string }{
		{plain.URL, "/v1/retime?wait=1"},
		{stored.URL, "/v1/explore?wait=1"},
		{stored.URL, "/v1/explore?wait=1"}, // explore points hit, but the job itself is a sweep
	} {
		if v, ok := viewKeys(solved.base, submit(solved.base, solved.path))["from_store"]; ok {
			t.Fatalf("%s: solved job view carries from_store = %s", solved.path, v)
		}
	}
	if v := viewKeys(stored.URL, submit(stored.URL, "/v1/retime?wait=1"))["from_store"]; string(v) != "true" {
		t.Fatalf("store hit's from_store = %q, want true", v)
	}
}
