package server

// The HA chaos suite drives the coordinator pair's advertised failover
// behaviors deterministically, end to end over real HTTP:
//
//	(a) the leader is killed mid-explore-sweep; the standby campaigns on the
//	    refused probe, resumes the replicated job, and the front is
//	    byte-identical to a single-node run
//	(b) a symmetric partition (both replication directions severed) leaves
//	    exactly one side admitting jobs: the leader keeps serving, the
//	    standby holds fail-safe and 307s submissions at the leader
//	(c) the killed ex-leader revives on its old address and term file, hears
//	    the new leader's higher term, and rejoins the pair as standby; the
//	    worker fleet has already re-joined the new leader via its hints
//
// Everything here must hold under -race with no flakes; CI runs these with
// the rest of the TestCluster* suite.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcretiming/internal/cluster"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/tenant"
)

// waitWorkerCounts polls a coordinator's membership summary until pred holds.
func waitWorkerCounts(t *testing.T, base, what string, pred func(alive, suspect, dead int) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive, suspect, dead := clusterCounts(t, base)
		if pred(alive, suspect, dead) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %s: stuck at %d alive / %d suspect / %d dead",
				what, alive, suspect, dead)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// haPair is a running coordinator pair plus the handles the tests kill,
// revive, and assert on.
type haPair struct {
	a, b     *Server
	aHS, bHS *httptest.Server
	urlA     string
	urlB     string
	cfgA     Config // as started, for same-address revival
}

// haTimings makes the pair fail over in test time: pushes every ~66ms, a
// standby probing after 600-900ms of silence (per-ID staggered).
func haTimings(cfg *Config) {
	cfg.LeaseTTL = 200 * time.Millisecond
	cfg.ElectionTimeout = 600 * time.Millisecond
}

// newHANode boots one HA coordinator on a pre-bound listener (the pair's
// URLs must exist before either node is configured).
func newHANode(t *testing.T, l net.Listener, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(s.Handler())
	hs.Listener.Close()
	hs.Listener = l
	hs.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		hs.Close()
	})
	return s, hs
}

// newHAPair binds two listeners, cross-wires the peer URLs, applies mutate to
// each node's config (self is "ha-a" or "ha-b"), starts both, and makes A the
// leader via the manual-campaign endpoint.
func newHAPair(t *testing.T, mutate func(cfg *Config, self string)) *haPair {
	t.Helper()
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &haPair{
		urlA: "http://" + la.Addr().String(),
		urlB: "http://" + lb.Addr().String(),
	}
	mk := func(self, selfURL, peerURL string) Config {
		cfg := Config{
			Coordinator:      true,
			AdvertiseURL:     selfURL,
			PeerURL:          peerURL,
			WorkerID:         self,
			TermFile:         filepath.Join(t.TempDir(), "term"),
			EnableFailpoints: true,
		}
		haTimings(&cfg)
		if mutate != nil {
			mutate(&cfg, self)
		}
		return cfg
	}
	p.cfgA = mk("ha-a", p.urlA, p.urlB)
	p.a, p.aHS = newHANode(t, la, p.cfgA)
	p.b, p.bHS = newHANode(t, lb, mk("ha-b", p.urlB, p.urlA))

	resp, err := http.Post(p.urlA+"/v1/cluster/campaign", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitLeaderView(t, p.urlA, "A leads", func(st cluster.LeaderStatus) bool {
		return st.Role == cluster.RoleLeader
	})
	// B must have heard A's push (so it holds a leader hint) before any test
	// starts breaking things.
	waitLeaderView(t, p.urlB, "B follows A", func(st cluster.LeaderStatus) bool {
		return st.Role == cluster.RoleStandby && st.LeaderURL == p.urlA
	})
	return p
}

// killA is the SIGKILL stand-in for the in-process leader: its election loops
// stop pushing (and can never step down gracefully), and its port closes so
// the standby's probe gets the connection-refused that justifies a campaign.
// The job executors keep running, exactly like a host whose service process
// was killed mid-solve would not: the point is that nothing A does after this
// instant reaches the outside world.
func (p *haPair) killA(t *testing.T) {
	t.Helper()
	p.a.election.Stop()
	p.aHS.CloseClientConnections()
	p.aHS.Close()
}

func leaderView(t *testing.T, base string) cluster.LeaderStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/leader")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.LeaderStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitLeaderView(t *testing.T, base, what string, pred func(cluster.LeaderStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := leaderView(t, base); pred(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %s: stuck at %+v", what, leaderView(t, base))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// postNoFollow submits without following redirects, so a standby's 307 is
// observable instead of being transparently replayed at the leader.
func postNoFollow(t *testing.T, url string, req retimeRequest) *http.Response {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestClusterHALeaderKillFailsOverSweep is HA acceptance (a): the leader is
// killed while an explore sweep provably runs on it; the standby campaigns on
// positive evidence (connection refused), resumes the replicated job spec,
// and completes the sweep byte-identical to a single-node run. Store writes
// replicated before the kill are also proven to have landed on the standby.
func TestClusterHALeaderKillFailsOverSweep(t *testing.T) {
	blifText := testBLIF(t)
	_, control := newTestServer(t, Config{})
	status, body := post(t, control.URL+"/v1/explore?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("control status = %d, body %v", status, body)
	}
	want := resultBytes(t, body)

	p := newHAPair(t, func(cfg *Config, self string) {
		cfg.StoreDir = t.TempDir()
		cfg.CheckpointDir = t.TempDir()
	})

	// Warm-up sweep on a distinct circuit: proves the leader's store writes
	// replicate to the standby while both are healthy. (A distinct circuit so
	// the chaos sweep below still misses the store and runs its failpoints.)
	status, body = post(t, p.urlA+"/v1/explore?wait=1", retimeRequest{BLIF: clusterBLIF(t, "ha-warm")})
	if status != http.StatusOK {
		t.Fatalf("warm-up sweep status = %d, body %v", status, body)
	}
	waitMetric(t, p.urlB, "ha_replicated_store", 1)

	// The chaos sweep: per-point sleeps keep it mid-flight long enough to be
	// killed under (a sleep changes timing, never results).
	status, body = post(t, p.urlA+"/v1/explore", retimeRequest{
		BLIF:       blifText,
		Failpoints: "graph.feasible=2*sleep(500ms)",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", status, body)
	}
	id := body["id"].(string)

	// Kill the leader only once the standby provably holds the job spec.
	waitMetric(t, p.urlB, "ha_replicated_jobs", 1)
	p.killA(t)

	// The standby campaigns (refused probe = positive evidence), takes the
	// lease at a burned term, and resumes the replicated job.
	waitLeaderView(t, p.urlB, "B takes the lease", func(st cluster.LeaderStatus) bool {
		return st.Role == cluster.RoleLeader
	})
	code, view := waitStatus(t, p.urlB, id, StatusDone)
	if code != http.StatusOK || view["status"] != string(StatusDone) {
		t.Fatalf("job after leader kill: code %d, view %v", code, view)
	}
	if got := resultBytes(t, view); !bytes.Equal(got, want) {
		t.Fatalf("failed-over front differs from single-node front:\n%s\nvs\n%s", got, want)
	}
	if n := metric(t, p.urlB, "ha_takeover_jobs"); n < 1 {
		t.Fatalf("ha_takeover_jobs = %d, want >= 1 (the job must arrive via takeover, not resubmission)", n)
	}
	if n := metric(t, p.urlB, "ha_campaigns"); n != 1 {
		t.Fatalf("ha_campaigns = %d, want exactly 1", n)
	}
	if st := leaderView(t, p.urlB); st.Term < 2 {
		t.Fatalf("B leads at term %d, want >= 2 (failover must burn a term)", st.Term)
	}
}

// TestClusterHAPartitionExactlyOneAdmits is HA acceptance (b): with both
// replication directions severed (the cluster.replicate and cluster.lease
// failpoints armed globally = a symmetric partition), the pair never has two
// leaders; the leader keeps admitting jobs, and the partitioned standby
// chooses fail-safe inaction — counted holds, writes refused with a leader
// hint — until the partition heals.
func TestClusterHAPartitionExactlyOneAdmits(t *testing.T) {
	blifText := testBLIF(t)
	p := newHAPair(t, nil)

	if err := failpoint.Enable("cluster.replicate", "error(internal)"); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("cluster.lease", "error(internal)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.replicate")
	defer failpoint.Disable("cluster.lease")

	// Wait until the standby has hit the hold decision at least twice —
	// proving it saw the silent lease, probed, could not tell partition from
	// death, and refused to campaign — asserting single-leadership throughout.
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, p.urlB, "ha_lease_holds") < 2 {
		stA, stB := leaderView(t, p.urlA), leaderView(t, p.urlB)
		if stA.Role == cluster.RoleLeader && stB.Role == cluster.RoleLeader {
			t.Fatalf("split brain: both sides lead (A term %d, B term %d)", stA.Term, stB.Term)
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby never held: %d holds", metric(t, p.urlB, "ha_lease_holds"))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Exactly one side admits. The leader serves exactly as before...
	status, body := post(t, p.urlA+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("leader submit during partition = %d, body %v", status, body)
	}
	// ...and the partitioned standby admits nothing: 307 at the leader hint,
	// nothing enqueued.
	resp := postNoFollow(t, p.urlB+"/v1/retime", retimeRequest{BLIF: blifText})
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("standby submit during partition = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, p.urlA) {
		t.Fatalf("standby redirect Location = %q, want leader %s", loc, p.urlA)
	}
	if n := metric(t, p.urlB, "ha_not_leader_rejects"); n < 1 {
		t.Fatalf("ha_not_leader_rejects = %d, want >= 1", n)
	}
	if n := metric(t, p.urlB, "jobs_submitted"); n != 0 {
		t.Fatalf("standby admitted %d job(s) while partitioned", n)
	}

	// Heal. The next push that lands renews the standby's lease view and the
	// pair settles back to one leader, one follower, same term. Successful
	// pushes are the monotone signal: after the disable no push can fail, so
	// pushes-minus-errors growing by 2 proves two renewals landed.
	failpoint.Disable("cluster.replicate")
	failpoint.Disable("cluster.lease")
	okAtHeal := metric(t, p.urlA, "ha_lease_pushes") - metric(t, p.urlA, "ha_lease_push_errors")
	deadline = time.Now().Add(10 * time.Second)
	for metric(t, p.urlA, "ha_lease_pushes")-metric(t, p.urlA, "ha_lease_push_errors") < okAtHeal+2 {
		if time.Now().After(deadline) {
			t.Fatal("leader pushes never resumed after the partition healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stA, stB := leaderView(t, p.urlA), leaderView(t, p.urlB)
	if stA.Role != cluster.RoleLeader || stB.Role != cluster.RoleStandby || stA.Term != stB.Term {
		t.Fatalf("pair after heal: A %+v, B %+v", stA, stB)
	}
	// A client that follows redirects lands on the leader transparently.
	status, body = post(t, p.urlB+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("redirected submit after heal = %d, body %v", status, body)
	}
}

// TestClusterHAKillReviveRejoinsAsStandby is HA acceptance (c): after a
// failover the killed ex-leader revives on its old address with its old term
// file; the new leader's pushes carry a higher term, so it rejoins the pair
// as standby without contesting. The worker followed the join hints to the
// new leader meanwhile, and jobs keep completing exactly once, byte-identical.
func TestClusterHAKillReviveRejoinsAsStandby(t *testing.T) {
	blifText := testBLIF(t)
	_, control := newTestServer(t, Config{})
	status, body := post(t, control.URL+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("control status = %d, body %v", status, body)
	}
	want := resultBytes(t, body)

	p := newHAPair(t, func(cfg *Config, self string) {
		cfg.CheckpointDir = t.TempDir()
	})

	// A worker joined to the original leader. It learns both coordinator URLs
	// and the current term from the join response.
	_, _ = newWorkerNode(t, Config{
		JoinURL:           p.urlA,
		WorkerID:          "w1",
		HeartbeatInterval: 50 * time.Millisecond,
	})
	waitWorkerCounts(t, p.urlA, "worker joins A", func(alive, _, _ int) bool { return alive == 1 })

	status, body = post(t, p.urlA+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("pre-failover submit = %d, body %v", status, body)
	}
	if got := resultBytes(t, body); !bytes.Equal(got, want) {
		t.Fatal("pre-failover result differs from single-node result")
	}
	if body["worker"] != "w1" {
		t.Fatalf("pre-failover job worker = %v, want w1", body["worker"])
	}
	termBefore := leaderView(t, p.urlA).Term

	// Wait for a lease push that snapshotted after the job finished: it
	// carries an empty snapshot, so the standby forgets the completed job and
	// the takeover below provably re-runs nothing. (Killing the leader inside
	// that window would make the standby re-run the finished job —
	// byte-identical and harmless, but this test is about the exactly-once
	// happy path.) Pushes run one at a time and count themselves before they
	// snapshot, so push pushed+1 snapshotted after the job returned, and the
	// counter reaching pushed+2 means that push has been applied on B.
	pushed := metric(t, p.urlA, "ha_lease_pushes")
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, p.urlA, "ha_lease_pushes") < pushed+2 || metric(t, p.urlB, "ha_replicated_jobs") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby never saw the post-completion empty snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	p.killA(t)
	waitLeaderView(t, p.urlB, "B takes the lease", func(st cluster.LeaderStatus) bool {
		return st.Role == cluster.RoleLeader
	})

	// The worker's heartbeats to the dead leader fail at the transport level;
	// after repeated misses it re-joins via the learned peer URL — carrying
	// its stale term, which the join deliberately tolerates (the join response
	// is how it learns the new one).
	waitWorkerCounts(t, p.urlB, "worker re-joins B", func(alive, _, _ int) bool { return alive == 1 })
	status, body = post(t, p.urlB+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("post-failover submit = %d, body %v", status, body)
	}
	if got := resultBytes(t, body); !bytes.Equal(got, want) {
		t.Fatal("post-failover result differs from single-node result")
	}
	if body["worker"] != "w1" {
		t.Fatalf("post-failover job worker = %v, want w1 (dispatched by the new leader)", body["worker"])
	}

	// Revive the ex-leader on its old address with its old term file. It
	// boots standby, hears B's pushes at the burned term, and stays standby.
	addr := strings.TrimPrefix(p.urlA, "http://")
	var la net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if la, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	a2, _ := newHANode(t, la, p.cfgA)
	waitLeaderView(t, p.urlA, "revived A follows B", func(st cluster.LeaderStatus) bool {
		return st.Role == cluster.RoleStandby && st.LeaderURL == p.urlB && st.Term > termBefore
	})
	if a2.election.IsLeader() {
		t.Fatal("revived ex-leader contested the lease")
	}
	// It refuses writes like any standby, hinting at the real leader.
	resp := postNoFollow(t, p.urlA+"/v1/retime", retimeRequest{BLIF: blifText})
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("revived ex-leader submit = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, p.urlB) {
		t.Fatalf("revived ex-leader redirect Location = %q, want %s", loc, p.urlB)
	}

	// Exactly once: the new leader ran exactly the one post-failover job (the
	// pre-failover job finished before the kill and was never replicated as
	// pending, so nothing was duplicated), and it was dispatched, not local.
	if n := metric(t, p.urlB, "jobs_completed"); n != 1 {
		t.Fatalf("new leader completed %d job(s), want exactly 1", n)
	}
	if n := metric(t, p.urlB, "cluster_jobs_dispatched"); n != 1 {
		t.Fatalf("new leader dispatched %d job(s), want exactly 1", n)
	}
}

// TestClusterHABatchFailoverMidBatch is the PR 10 batch-durability property:
// the leader is SIGKILLed while a 3-job tenant batch is mid-flight. Because
// the batch members ride the ordinary job snapshot (the spec carries the
// batch ID and total), the standby rebuilds the WHOLE batch — same batch ID,
// same tenant — resumes it, loses nothing, duplicates nothing, and a client
// whose event stream died with the old leader reconnects to the new one and
// replays a complete, contiguous log ending in batch_done.
func TestClusterHABatchFailoverMidBatch(t *testing.T) {
	// Single-node control runs: one per distinct circuit, submitted alone.
	_, control := newTestServer(t, Config{})
	want := make([][]byte, 3)
	for i := 0; i < 3; i++ {
		status, body := post(t, control.URL+"/v1/retime?wait=1",
			retimeRequest{BLIF: clusterBLIF(t, fmt.Sprintf("ha-batch-%d", i))})
		if status != http.StatusOK {
			t.Fatalf("control %d status = %d, body %v", i, status, body)
		}
		want[i] = resultBytes(t, body)
	}

	p := newHAPair(t, func(cfg *Config, self string) {
		cfg.Workers = 1 // serialize members so the kill lands mid-batch
	})

	// Per-member sleeps keep the batch in flight across several replication
	// pushes (a sleep changes timing, never results).
	req := map[string]any{"jobs": []map[string]any{
		{"blif": clusterBLIF(t, "ha-batch-0"), "failpoints": "server.job=sleep(300ms)"},
		{"blif": clusterBLIF(t, "ha-batch-1"), "failpoints": "server.job=sleep(300ms)"},
		{"blif": clusterBLIF(t, "ha-batch-2"), "failpoints": "server.job=sleep(300ms)"},
	}}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest(http.MethodPost, p.urlA+"/v1/batch", bytes.NewReader(data))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(tenant.Header, "acme")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var accepted map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %v", resp.StatusCode, accepted)
	}
	batchID := accepted["id"].(string)
	memberIDs := map[string]bool{}
	for _, j := range accepted["jobs"].([]any) {
		memberIDs[j.(string)] = true
	}

	// A client watches the batch on the leader; this stream dies with it.
	stream, err := http.Get(p.urlA + "/v1/batch/" + batchID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	preKill := 0
	sc := bufio.NewScanner(stream.Body)
	for preKill < 3 && sc.Scan() { // at least the three queued events
		preKill++
	}
	if preKill < 3 {
		t.Fatalf("leader stream delivered only %d events before the kill", preKill)
	}

	// Kill the leader only once the standby provably holds all three member
	// specs (each carrying the batch ID, so the batch rebuilds whole).
	waitMetric(t, p.urlB, "ha_replicated_jobs", 3)
	p.killA(t)
	if sc.Scan(); sc.Err() == nil && stream.Body != nil {
		// The severed stream ends; whether it surfaces as EOF or a transport
		// error depends on timing — either way the client must reconnect.
		_ = sc.Err()
	}

	waitLeaderView(t, p.urlB, "B takes the lease", func(st cluster.LeaderStatus) bool {
		return st.Role == cluster.RoleLeader
	})

	// The SAME batch completes on B: same ID, same tenant, all members done.
	deadline := time.Now().Add(20 * time.Second)
	var view map[string]any
	for {
		r, err := http.Get(p.urlB + "/v1/batch/" + batchID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusNotFound {
			r.Body.Close()
			if time.Now().After(deadline) {
				t.Fatalf("standby never rebuilt batch %s", batchID)
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if int(view["done"].(float64)) == int(view["total"].(float64)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished on the standby: %v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view["tenant"] != "acme" || int(view["total"].(float64)) != 3 {
		t.Fatalf("rebuilt batch view: %v", view)
	}
	counts := view["counts"].(map[string]any)
	if int(counts["done"].(float64)) != 3 {
		t.Fatalf("rebuilt batch counts = %v (lost or failed members)", counts)
	}

	// No lost, no duplicated jobs: exactly the original member IDs, each with
	// a result byte-identical to its single-job control run.
	jobs := view["jobs"].([]any)
	if len(jobs) != 3 {
		t.Fatalf("rebuilt batch has %d members", len(jobs))
	}
	seen := map[string]bool{}
	for i, j := range jobs {
		jm := j.(map[string]any)
		id := jm["id"].(string)
		if !memberIDs[id] {
			t.Fatalf("member %s was not in the original admission", id)
		}
		if seen[id] {
			t.Fatalf("member %s appears twice", id)
		}
		seen[id] = true
		code, full := getJob(t, p.urlB, id)
		if code != http.StatusOK {
			t.Fatalf("member %s on standby: %d", id, code)
		}
		if got := resultBytes(t, full); !bytes.Equal(got, want[i]) {
			t.Fatalf("failed-over member %d differs from its single-node control", i)
		}
	}

	// The reconnected event stream replays a complete log: contiguous seq
	// from 0, every member exactly one done, batch_done terminal.
	r2, err := http.Get(p.urlB + "/v1/batch/" + batchID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	doneSeen := map[string]int{}
	lastEvent, n := "", 0
	sc2 := bufio.NewScanner(r2.Body)
	for sc2.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc2.Text(), err)
		}
		if int(ev["seq"].(float64)) != n {
			t.Fatalf("seq gap: event %d has seq %v", n, ev["seq"])
		}
		n++
		lastEvent = ev["event"].(string)
		if lastEvent == "done" {
			doneSeen[ev["job"].(string)]++
		}
		if lastEvent == "batch_done" {
			break
		}
	}
	if lastEvent != "batch_done" {
		t.Fatalf("reconnected stream ended with %q after %d events", lastEvent, n)
	}
	for id := range memberIDs {
		if doneSeen[id] != 1 {
			t.Fatalf("member %s has %d done events on the standby, want exactly 1", id, doneSeen[id])
		}
	}
}
