package server

// Corrupt-checkpoint resilience: one torn or garbage spec file must never
// take the healthy checkpoints hostage. loadCheckpoints skips each bad file
// (reporting it through onBad), resumes every readable spec, and leaves the
// bad bytes on disk for a human to inspect.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// corruptDir builds a checkpoint directory holding two good specs sandwiched
// between three corrupt files: a torn write (truncated JSON), pure garbage,
// and a decodable spec with no job ID. It returns the dir, the good specs,
// and the bad file names in lexical (load) order.
func corruptDir(t *testing.T) (string, []JobSpec, []string) {
	t.Helper()
	dir := t.TempDir()
	good := []JobSpec{
		{ID: "job-000002", BLIF: testBLIF(t)},
		{ID: "job-000004", BLIF: testBLIF(t)},
	}
	for _, spec := range good {
		if err := checkpointJob(dir, spec); err != nil {
			t.Fatal(err)
		}
	}
	bad := map[string][]byte{
		"job-000001.json": []byte(`{"id": "job-0000`),      // torn mid-write
		"job-000003.json": []byte("\x00\x01not json at"),   // bit rot
		"job-000005.json": []byte(`{"blif": "no id here"`), // truncated, would also lack an ID
	}
	// A decodable spec with no ID is its own failure mode: valid JSON that
	// still cannot be resumed (nothing to key the job on).
	bad["job-000006.json"] = []byte(`{"blif": ".model x\n.end\n"}`)
	for name, data := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, good, []string{"job-000001.json", "job-000003.json", "job-000005.json", "job-000006.json"}
}

func TestLoadCheckpointsSkipsCorrupt(t *testing.T) {
	dir, good, badNames := corruptDir(t)

	var reported []string
	specs, err := loadCheckpoints(dir, func(name string, err error) {
		if err == nil {
			t.Errorf("onBad(%s) called with a nil error", name)
		}
		reported = append(reported, name)
	})
	if err != nil {
		t.Fatalf("loadCheckpoints: %v (corrupt specs must not abort the resume)", err)
	}

	if len(specs) != len(good) {
		t.Fatalf("resumed %d specs, want %d: %+v", len(specs), len(good), specs)
	}
	for i, spec := range specs {
		if spec.ID != good[i].ID {
			t.Errorf("spec[%d].ID = %s, want %s (ID order)", i, spec.ID, good[i].ID)
		}
	}
	if len(reported) != len(badNames) {
		t.Fatalf("onBad reported %v, want %v", reported, badNames)
	}
	for i, name := range reported {
		if name != badNames[i] {
			t.Errorf("onBad[%d] = %s, want %s", i, name, badNames[i])
		}
	}
	// The bad files are evidence: left on disk, never deleted.
	for _, name := range badNames {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("corrupt checkpoint %s was removed: %v", name, err)
		}
	}
}

// TestResumeSkipsCorruptCheckpoint is the server-level contract: a restart
// over a checkpoint dir with corrupt entries resumes every good job to
// completion and surfaces the bad ones in mcretimed_checkpoint_errors.
func TestResumeSkipsCorruptCheckpoint(t *testing.T) {
	dir, good, badNames := corruptDir(t)

	_, hs := newTestServer(t, Config{CheckpointDir: dir, Logf: quiet})
	for _, spec := range good {
		code, view := waitStatus(t, hs.URL, spec.ID, StatusDone)
		if code != 200 || view["status"] != string(StatusDone) {
			t.Fatalf("resumed job %s: code %d, view %v", spec.ID, code, view)
		}
	}
	if n := metric(t, hs.URL, "jobs_resumed"); n != int64(len(good)) {
		t.Fatalf("jobs_resumed = %d, want %d", n, len(good))
	}
	if n := metric(t, hs.URL, "checkpoint_errors"); n != int64(len(badNames)) {
		t.Fatalf("checkpoint_errors = %d, want %d", n, len(badNames))
	}
}

// TestResumeOverflowStaysCheckpointed: a restart over more checkpointed specs
// than the queue holds resumes the first QueueSize in ID order and leaves the
// rest on disk byte for byte, for the next restart to resume.
func TestResumeOverflowStaysCheckpointed(t *testing.T) {
	dir := t.TempDir()
	var ids []string
	for i := 1; i <= 5; i++ {
		spec := JobSpec{ID: fmt.Sprintf("job-%06d", i), BLIF: batchBLIF(t, i)}
		if err := checkpointJob(dir, spec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, spec.ID)
	}
	before := map[string][]byte{}
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		before[id] = data
	}

	restart := func(resumed []string, left []string) {
		t.Helper()
		s, hs := newTestServer(t, Config{CheckpointDir: dir, QueueSize: 2, Workers: 1, Logf: quiet})
		for _, id := range resumed {
			if code, view := waitStatus(t, hs.URL, id, StatusDone); code != 200 {
				t.Fatalf("resumed job %s: code %d, view %v", id, code, view)
			}
			if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
				t.Fatalf("resumed job %s still checkpointed (stat err %v)", id, err)
			}
		}
		if n := metric(t, hs.URL, "jobs_resumed"); n != int64(len(resumed)) {
			t.Fatalf("jobs_resumed = %d, want %d", n, len(resumed))
		}
		for _, id := range left {
			if code, _ := getJob(t, hs.URL, id); code != http.StatusNotFound {
				t.Fatalf("overflow job %s was admitted (GET = %d)", id, code)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range left {
			data, err := os.ReadFile(filepath.Join(dir, id+".json"))
			if err != nil {
				t.Fatalf("overflow job %s left the disk: %v", id, err)
			}
			if !bytes.Equal(data, before[id]) {
				t.Fatalf("overflow checkpoint %s was rewritten", id)
			}
		}
	}
	restart(ids[:2], ids[2:])
	restart(ids[2:4], ids[4:])
	restart(ids[4:], nil)
}
