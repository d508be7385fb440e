package server

// A retime job's result is a pure function of its circuit bytes and its
// result-determining options, so a server with a result store answers a
// repeat from the store: byte-identical, with no parse, dispatch or solve.
// A miss's save runs just after the job is answered, so a test that needs
// the entry waits for store_saves (or store_save_errors) first.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/failpoint"
)

// rawResult fetches job id's view and returns its result exactly as served,
// with the view's from_store flag.
func rawResult(t *testing.T, base, id string) (json.RawMessage, bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Status    JobStatus       `json:"status"`
		FromStore bool            `json:"from_store"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || len(view.Result) == 0 {
		t.Fatalf("job %s: status %s, result %s", id, view.Status, view.Result)
	}
	return view.Result, view.FromStore
}

// retimeOnce submits req and waits for it to finish done; it returns the
// served result and whether it came from the store.
func retimeOnce(t *testing.T, base string, req retimeRequest) (json.RawMessage, bool) {
	t.Helper()
	status, body := post(t, base+"/v1/retime?wait=1", req)
	if status != http.StatusOK {
		t.Fatalf("retime: %d %v", status, body)
	}
	return rawResult(t, base, body["id"].(string))
}

// entryPath is where s keeps the entry for key.
func entryPath(s *Server, key string) string {
	return filepath.Join(s.store.Dir(), "objects", key[:2], key[2:]+".json")
}

func TestRetimeRepeatServedFromStore(t *testing.T) {
	s, hs := newTestServer(t, Config{StoreDir: t.TempDir()})
	in := testBLIF(t)

	first, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in})
	if fromStore {
		t.Fatal("first job was served from an empty store")
	}
	waitMetric(t, hs.URL, "store_saves", 1)
	if n := metric(t, hs.URL, "store_saves"); n != 1 {
		t.Fatalf("store_saves = %d after the first job, want 1", n)
	}
	hits := metric(t, hs.URL, "store_hits")
	second, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in})
	if !fromStore {
		t.Fatal("identical second job was solved again")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("stored result differs from the solved one:\n%s\nvs\n%s", second, first)
	}
	if n := metric(t, hs.URL, "store_hits"); n != hits+1 {
		t.Fatalf("store_hits = %d, want %d", n, hits+1)
	}

	// Both equal an in-process run of the engine.
	c, err := blif.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := core.Retime(c, core.Options{Objective: core.MinAreaAtMinPeriod})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := blif.Write(&want, out); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(second, &res); err != nil {
		t.Fatal(err)
	}
	if res.BLIF != want.String() {
		t.Fatal("stored BLIF differs from core.Retime + blif.Write")
	}
	if _, err := os.Stat(entryPath(s, mustRetimeKey(t, JobSpec{BLIF: in}))); err != nil {
		t.Fatalf("no entry under the job's key: %v", err)
	}
}

// TestClusterRetimeStoreHitNotDispatched: the coordinator owns the cache,
// so a repeat never reaches a worker.
func TestClusterRetimeStoreHitNotDispatched(t *testing.T) {
	coord, coordHS := newClusterNode(t, Config{Coordinator: true, StoreDir: t.TempDir()})
	_, wHS := newClusterNode(t, Config{})
	coord.registry.Join("w1", wHS.URL)
	in := testBLIF(t)

	status, body := post(t, coordHS.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in})
	if status != http.StatusOK || body["worker"] != "w1" {
		t.Fatalf("first job: %d, worker %v", status, body["worker"])
	}
	first, _ := rawResult(t, coordHS.URL, body["id"].(string))
	waitMetric(t, coordHS.URL, "store_saves", 1)
	dispatched := metric(t, coordHS.URL, "cluster_jobs_dispatched")

	status, body = post(t, coordHS.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in})
	if status != http.StatusOK {
		t.Fatalf("second job: %d %v", status, body)
	}
	if _, ok := body["worker"]; ok {
		t.Fatalf("store hit names worker %v", body["worker"])
	}
	second, fromStore := rawResult(t, coordHS.URL, body["id"].(string))
	if !fromStore || !bytes.Equal(first, second) {
		t.Fatalf("second job from_store=%t, identical=%t", fromStore, bytes.Equal(first, second))
	}
	if n := metric(t, coordHS.URL, "cluster_jobs_dispatched"); n != dispatched {
		t.Fatalf("cluster_jobs_dispatched %d -> %d on a store hit", dispatched, n)
	}
	if n := metric(t, wHS.URL, "cluster_runs_served"); n != 1 {
		t.Fatalf("worker served %d runs, want 1", n)
	}
}

// TestRetimeCorruptEntryResolves: a damaged entry reads as a miss, the job
// re-solves to the same bytes, and the entry is rewritten whole.
func TestRetimeCorruptEntryResolves(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flipped", func(b []byte) []byte {
			i := bytes.Index(b, []byte(".model"))
			b[i+1] ^= 0x20
			return b
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, hs := newTestServer(t, Config{StoreDir: t.TempDir()})
			in := testBLIF(t)
			want, _ := retimeOnce(t, hs.URL, retimeRequest{BLIF: in})
			waitMetric(t, hs.URL, "store_saves", 1)

			path := entryPath(s, mustRetimeKey(t, JobSpec{BLIF: in}))
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(bytes.Clone(good)), 0o644); err != nil {
				t.Fatal(err)
			}
			got, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in})
			if fromStore || !bytes.Equal(got, want) {
				t.Fatalf("after damage: from_store=%t, identical=%t", fromStore, bytes.Equal(got, want))
			}
			if n := metric(t, hs.URL, "store_corrupt"); n != 1 {
				t.Fatalf("store_corrupt = %d, want 1", n)
			}
			waitMetric(t, hs.URL, "store_saves", 2)
			if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, good) {
				t.Fatalf("entry not rewritten (err %v)", err)
			}
			if _, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in}); !fromStore {
				t.Fatal("rewritten entry was not served")
			}
		})
	}
}

// TestRetimeFailpointsBypassStore: a job that arms failpoints runs the
// solver even when the store holds its answer, so chaos still fires; and it
// does not write its result either.
func TestRetimeFailpointsBypassStore(t *testing.T) {
	_, hs := newTestServer(t, Config{StoreDir: t.TempDir(), EnableFailpoints: true})
	in := testBLIF(t)
	retimeOnce(t, hs.URL, retimeRequest{BLIF: in})
	waitMetric(t, hs.URL, "store_saves", 1)
	if _, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in}); !fromStore {
		t.Fatal("entry not present before the chaos job")
	}
	loads := metric(t, hs.URL, "store_hits") + metric(t, hs.URL, "store_misses")
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{
		BLIF:       in,
		Failpoints: "graph.minperiod=1*error(budget)",
	})
	checkBudgetExceeded(t, status, body)

	// A successful chaos job neither reads nor writes the store.
	status, body = post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{BLIF: in, Failpoints: "graph.minperiod=1*sleep(1ms)"})
	if status != http.StatusOK {
		t.Fatalf("chaos job: %d %v", status, body)
	}
	if _, ok := body["from_store"]; ok {
		t.Fatal("chaos job was served from the store")
	}
	if n := metric(t, hs.URL, "store_hits") + metric(t, hs.URL, "store_misses"); n != loads {
		t.Fatalf("chaos jobs touched the store: %d loads -> %d", loads, n)
	}
	if n := metric(t, hs.URL, "store_saves"); n != 1 {
		t.Fatalf("store_saves = %d, want 1", n)
	}
}

// TestRetimeFailedJobNotSaved: a failed job leaves no entry behind.
func TestRetimeFailedJobNotSaved(t *testing.T) {
	_, hs := newTestServer(t, Config{StoreDir: t.TempDir()})
	status, body := post(t, hs.URL+"/v1/retime?wait=1", retimeRequest{
		BLIF:    testBLIF(t),
		Options: JobOptions{Objective: "min-area-at-period", TargetPeriodPS: 1},
	})
	if status == http.StatusOK {
		t.Fatalf("infeasible target succeeded: %v", body)
	}
	if n := metric(t, hs.URL, "store_saves"); n != 0 {
		t.Fatalf("store_saves = %d after a failed job", n)
	}
}

func mustRetimeKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	key, err := retimeKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRetimeKeyOptions: fields that never change a retime result share the
// key; every field that can change it gives another key.
func TestRetimeKeyOptions(t *testing.T) {
	in := testBLIF(t)
	base := mustRetimeKey(t, JobSpec{BLIF: in})
	for _, o := range []JobOptions{
		{TimeoutMS: 5000},
		{Parallelism: 4},
		{MaxPoints: 3},
		{Objective: "min-area"}, // the default objective, spelled out
	} {
		if k := mustRetimeKey(t, JobSpec{BLIF: in, Options: o}); k != base {
			t.Errorf("%+v: key differs from the default options' key", o)
		}
	}
	// Tenant, batch and failpoints are not options either.
	if k := mustRetimeKey(t, JobSpec{BLIF: in, Tenant: "acme", Batch: "b1", Failpoints: "x=off"}); k != base {
		t.Error("tenant, batch or failpoints changed the key")
	}
	seen := map[string]string{base: "default"}
	for name, o := range map[string]JobOptions{
		"min-period":       {Objective: "min-period"},
		"at-period 9000":   {Objective: "min-area-at-period", TargetPeriodPS: 9000},
		"at-period 9001":   {Objective: "min-area-at-period", TargetPeriodPS: 9001},
		"forward-only":     {ForwardOnly: true},
		"no sharing":       {DisableSharing: true},
		"no justify":       {DisableJustify: true},
		"check invariants": {CheckInvariants: true},
		"bdd budget":       {Budgets: BudgetSpec{BDDNodes: 100}},
		"sat budget":       {Budgets: BudgetSpec{SATConflicts: 100}},
		"flow budget":      {Budgets: BudgetSpec{FlowAugmentations: 100}},
		"rounds budget":    {Budgets: BudgetSpec{MinAreaRounds: 100}},
	} {
		k := mustRetimeKey(t, JobSpec{BLIF: in, Options: o})
		if other, dup := seen[k]; dup {
			t.Errorf("%s shares a key with %s", name, other)
		}
		seen[k] = name
	}
	if k := mustRetimeKey(t, JobSpec{BLIF: in + "\n"}); k == base {
		t.Error("different circuit bytes share a key")
	}
	if _, err := retimeKey(JobSpec{BLIF: in, Options: JobOptions{Objective: "fastest"}}); err == nil {
		t.Error("unknown objective produced a key")
	}
}

// TestRetimeStoreSharedAcrossTimeouts: over HTTP, a job that differs only in
// timeout_ms or parallelism is a hit, one that differs in a flag a miss.
func TestRetimeStoreSharedAcrossTimeouts(t *testing.T) {
	_, hs := newTestServer(t, Config{StoreDir: t.TempDir()})
	in := testBLIF(t)
	want, _ := retimeOnce(t, hs.URL, retimeRequest{BLIF: in})
	waitMetric(t, hs.URL, "store_saves", 1)
	for _, o := range []JobOptions{{TimeoutMS: 30000}, {Parallelism: 3}} {
		got, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in, Options: o})
		if !fromStore || !bytes.Equal(got, want) {
			t.Errorf("%+v: from_store=%t, identical=%t", o, fromStore, bytes.Equal(got, want))
		}
	}
	if _, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in, Options: JobOptions{ForwardOnly: true}}); fromStore {
		t.Error("forward_only job was served the default options' entry")
	}
	// Its save trails the answer; let it land before the store dir goes.
	waitMetric(t, hs.URL, "store_saves", 2)
}

// TestRetimeUnwritableStoreNeverFailsJob: a store whose entry directory
// cannot be created counts a save error and the job still succeeds.
func TestRetimeUnwritableStoreNeverFailsJob(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{StoreDir: dir})
	in := testBLIF(t)
	key := mustRetimeKey(t, JobSpec{BLIF: in})
	// A plain file where the entry's fan-out directory belongs: MkdirAll
	// fails whatever the process's privileges.
	if err := os.WriteFile(filepath.Join(dir, "objects", key[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in}); fromStore {
			t.Fatal("job served from a store that never saved")
		}
		waitMetric(t, hs.URL, "store_save_errors", int64(i))
	}
	if n := metric(t, hs.URL, "store_save_errors"); n != 2 {
		t.Fatalf("store_save_errors = %d, want 2", n)
	}
}

// TestRetimeSaveFollowsAnswer: a miss is answered before its save runs, and
// the save still holds the executor, so a graceful shutdown leaves the entry
// written.
func TestRetimeSaveFollowsAnswer(t *testing.T) {
	s, hs := newTestServer(t, Config{StoreDir: t.TempDir()})
	if err := failpoint.Enable("store.save", "sleep(300ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("store.save")
	in := testBLIF(t)
	if _, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in}); fromStore {
		t.Fatal("first job was served from an empty store")
	}
	if n := metric(t, hs.URL, "store_saves"); n != 0 {
		t.Fatalf("store_saves = %d when the answer arrived: the answer waited for the save", n)
	}
	if err := s.Shutdown(testCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if n := s.store.Stats().Saves; n != 1 {
		t.Fatalf("store saves after drain = %d, want 1", n)
	}
	if _, err := os.Stat(entryPath(s, mustRetimeKey(t, JobSpec{BLIF: in}))); err != nil {
		t.Fatalf("no entry after drain: %v", err)
	}
}

// TestRetimeSavePanicIsContained: the save runs after the job is answered,
// outside execute, and a panic there is still counted and contained.
func TestRetimeSavePanicIsContained(t *testing.T) {
	_, hs := newTestServer(t, Config{StoreDir: t.TempDir(), Logf: quiet})
	if err := failpoint.Enable("store.save", "panic"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("store.save")
	in := testBLIF(t)
	for i := int64(1); i <= 2; i++ {
		if _, fromStore := retimeOnce(t, hs.URL, retimeRequest{BLIF: in}); fromStore {
			t.Fatal("job served from a store whose saves panic")
		}
		waitMetric(t, hs.URL, "job_panics", i)
	}
}
