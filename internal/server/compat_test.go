package server

// Wire compatibility with job specs written while JobOptions still carried an
// "engine" field ("auto", "sparse", "dense" or "arrival"). Decoding ignores
// the field, so checkpoints, HA snapshots and live requests that carry it
// keep working — and because there is one solve core, they return exactly
// the bytes a spec without it returns. The same holds for "parallelism" on a
// retime job: the solve is serial, so the field no longer reaches the result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// legacySpecs returns job specs in the pre-removal format, their options
// carrying a retired engine token: one retime job per token plus an explore
// job. The map gives each job ID's kind.
func legacySpecs(t *testing.T) (map[string]string, []map[string]any) {
	t.Helper()
	in := testBLIF(t)
	kinds := map[string]string{}
	var specs []map[string]any
	for i, tc := range []struct{ kind, engine string }{
		{KindRetime, "dense"}, {KindRetime, "arrival"}, {KindRetime, "auto"}, {KindExplore, "dense"},
	} {
		id := fmt.Sprintf("job-%06d", i+1)
		kinds[id] = tc.kind
		specs = append(specs, map[string]any{
			"id": id, "kind": tc.kind, "blif": in, "options": map[string]any{"engine": tc.engine},
		})
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
	want := controlResults(t)
	kinds, specs := legacySpecs(t)
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
	want := controlResults(t)
	kinds, specs := legacySpecs(t)
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
		data, err := json.Marshal(map[string]any{"blif": testBLIF(t), "options": opts})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/retime?wait=1", "application/json", bytes.NewReader(data))
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
			t.Fatalf("options %v: status %d, body %v", opts, resp.StatusCode, view)
		}
		if got := resultJSON(t, view); !bytes.Equal(got, want[KindRetime]) {
			t.Fatalf("options %v: result differs from a request without them:\n%s\nvs\n%s", opts, got, want[KindRetime])
		}
	}
}
