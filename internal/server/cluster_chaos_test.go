package server

// The cluster chaos suite drives the distributed deployment's advertised
// failure behaviors deterministically, end to end over real HTTP:
//
//	(a) a forwarded retime job is byte-identical to a single-node run
//	(b) a worker killed mid-job is demoted and the job completes on the
//	    next ring node, byte-identical
//	(c) zero healthy workers (none joined, dead address, or the
//	    cluster.dispatch/cluster.forward failpoints) degrade to local
//	    execution, byte-identical
//	(d) a clustered sweep fans points out to workers and its front is
//	    byte-identical to a single-node sweep, worker loss included
//	(e) a partitioned remote store degrades to misses: every front matches
//	    a fresh solve
//	(f) lost heartbeats walk a worker alive → suspect → dead; the next
//	    beat revives it
//	(g) a coordinator restart resumes checkpointed jobs through dispatch
//
// Everything here must hold under -race with no flakes; CI runs it that way.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/netlist"
)

// quiet silences a node's operational log in tests (the default Logf is
// log.Printf, and cluster nodes log every demotion and fallback).
func quiet(string, ...any) {}

// newClusterNode starts a server over httptest and registers a full
// shutdown+close cleanup (cluster nodes own background goroutines, so unlike
// newTestServer they must be drained, not just abandoned).
func newClusterNode(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		hs.Close()
	})
	return s, hs
}

// newWorkerNode starts a real worker (join + heartbeat loop): the listener is
// bound first so the advertise URL exists before the server starts beating.
func newWorkerNode(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdvertiseURL = "http://" + l.Addr().String()
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

// clusterBLIF is testBLIF with a caller-chosen model name, for tests that
// need a circuit with distinct routing/store keys.
func clusterBLIF(t *testing.T, model string) string {
	t.Helper()
	c := netlist.New(model)
	a := c.AddInput("a")
	b := c.AddInput("b")
	clk := c.AddInput("clk")
	_, q1 := c.AddReg("r1", a, clk)
	_, q2 := c.AddReg("r2", b, clk)
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

// resultBytes renders a finished job's result payload for byte comparison.
func resultBytes(t *testing.T, body map[string]any) []byte {
	t.Helper()
	res, ok := body["result"]
	if !ok || res == nil {
		t.Fatalf("job has no result: %v", body)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// metric scrapes one counter off a node's /metrics (0 when absent).
func metric(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == "mcretimed_"+name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// waitMetric polls base's /metrics until name reaches at least want.
func waitMetric(t *testing.T, base, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if metric(t, base, name) >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d", name, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// clusterCounts reads the coordinator's membership summary.
func clusterCounts(t *testing.T, base string) (alive, suspect, dead int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Alive   int `json:"alive"`
		Suspect int `json:"suspect"`
		Dead    int `json:"dead"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Alive, body.Suspect, body.Dead
}

// TestClusterForwardedRetimeBitIdentical is acceptance (a): the same request
// through a coordinator+worker pair and through a single-node daemon produce
// byte-identical results, and the job view names the worker that ran it.
func TestClusterForwardedRetimeBitIdentical(t *testing.T) {
	_, control := newTestServer(t, Config{})
	status, body := post(t, control.URL+"/v1/retime?wait=1", retimeRequest{BLIF: testBLIF(t)})
	if status != http.StatusOK {
		t.Fatalf("control status = %d, body %v", status, body)
	}
	want := resultBytes(t, body)

	coord, coordHS := newClusterNode(t, Config{Coordinator: true})
	_, wHS := newClusterNode(t, Config{})
	coord.registry.Join("w1", wHS.URL)

	status, body = post(t, coordHS.URL+"/v1/retime?wait=1", retimeRequest{BLIF: testBLIF(t)})
	if status != http.StatusOK {
		t.Fatalf("cluster status = %d, body %v", status, body)
	}
	if got := resultBytes(t, body); !bytes.Equal(got, want) {
		t.Fatalf("forwarded result differs from single-node result:\n%s\nvs\n%s", got, want)
	}
	if body["worker"] != "w1" {
		t.Fatalf("job view worker = %v, want w1", body["worker"])
	}
	if n := metric(t, coordHS.URL, "cluster_jobs_dispatched"); n != 1 {
		t.Fatalf("coordinator dispatched = %d, want 1", n)
	}
	if n := metric(t, wHS.URL, "cluster_runs_served"); n != 1 {
		t.Fatalf("worker runs served = %d, want 1", n)
	}
}

// TestClusterWorkerKilledMidJobReroutes is acceptance (b): the routed worker
// dies while the job runs on it; the dispatcher demotes it and re-routes, and
// the job completes on the survivor byte-identical to a single-node run.
func TestClusterWorkerKilledMidJobReroutes(t *testing.T) {
	blifText := testBLIF(t)
	_, control := newTestServer(t, Config{})
	status, body := post(t, control.URL+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("control status = %d, body %v", status, body)
	}
	want := resultBytes(t, body)

	coord, coordHS := newClusterNode(t, Config{Coordinator: true, EnableFailpoints: true})
	_, w1HS := newClusterNode(t, Config{EnableFailpoints: true})
	_, w2HS := newClusterNode(t, Config{EnableFailpoints: true})
	coord.registry.Join("w1", w1HS.URL)
	coord.registry.Join("w2", w2HS.URL)

	// The ring decides which worker fields this job; compute it the same way
	// dispatch does so the test can kill exactly that one.
	key, err := retimeKey(JobSpec{BLIF: blifText})
	if err != nil {
		t.Fatal(err)
	}
	primary, ok := coord.registry.Route(key, nil)
	if !ok {
		t.Fatal("ring is empty")
	}
	primaryHS, survivor := w1HS, "w2"
	if primary.ID == "w2" {
		primaryHS, survivor = w2HS, "w1"
	}

	// The forwarded failpoint makes the run linger on the worker long enough
	// to be killed mid-flight (a sleep changes timing, never results).
	status, body = post(t, coordHS.URL+"/v1/retime", retimeRequest{
		BLIF:       blifText,
		Failpoints: "graph.minperiod=1*sleep(1s)",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", status, body)
	}
	id := body["id"].(string)

	// Kill the primary while the job is provably running on it.
	waitMetric(t, primaryHS.URL, "cluster_runs_served", 1)
	primaryHS.CloseClientConnections()
	primaryHS.Close()

	code, view := waitStatus(t, coordHS.URL, id, StatusDone)
	if code != http.StatusOK || view["status"] != string(StatusDone) {
		t.Fatalf("job after worker kill: code %d, view %v", code, view)
	}
	if got := resultBytes(t, view); !bytes.Equal(got, want) {
		t.Fatalf("re-routed result differs from single-node result:\n%s\nvs\n%s", got, want)
	}
	if view["worker"] != survivor {
		t.Fatalf("job view worker = %v, want survivor %s", view["worker"], survivor)
	}
	alive, suspect, dead := clusterCounts(t, coordHS.URL)
	if alive != 1 || suspect+dead != 1 {
		t.Fatalf("membership after kill = %d alive / %d suspect / %d dead, want 1 alive and 1 demoted",
			alive, suspect, dead)
	}
}

// TestClusterNoHealthyWorkerDegradesLocal is acceptance (c): with no workers,
// with only an unreachable worker, and with the cluster.dispatch and
// cluster.forward failpoints armed, a coordinator still answers — locally,
// byte-identical to a single-node daemon.
func TestClusterNoHealthyWorkerDegradesLocal(t *testing.T) {
	blifText := testBLIF(t)
	_, control := newTestServer(t, Config{})
	status, body := post(t, control.URL+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("control status = %d, body %v", status, body)
	}
	want := resultBytes(t, body)

	coord, coordHS := newClusterNode(t, Config{Coordinator: true, EnableFailpoints: true})

	run := func(name, failpoints string) {
		t.Helper()
		status, body := post(t, coordHS.URL+"/v1/retime?wait=1", retimeRequest{
			BLIF:       blifText,
			Failpoints: failpoints,
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %v", name, status, body)
		}
		if got := resultBytes(t, body); !bytes.Equal(got, want) {
			t.Fatalf("%s: degraded result differs from single-node result:\n%s\nvs\n%s", name, got, want)
		}
		if w, ok := body["worker"]; ok {
			t.Fatalf("%s: degraded job claims a worker: %v", name, w)
		}
	}

	// 1. Empty ring.
	run("no workers", "")
	// 2. A joined worker nobody answers at: forwards fail at the transport
	// level, the worker is demoted, and the job falls back.
	coord.registry.Join("ghost", "http://127.0.0.1:1")
	run("unreachable worker", "")
	if _, suspect, dead := clusterCounts(t, coordHS.URL); suspect+dead == 0 {
		t.Fatal("unreachable worker was not demoted")
	}
	// 3. Chaos seams: dispatch cut off entirely, then every forward failing.
	run("cluster.dispatch failpoint", "cluster.dispatch=error(internal)")
	run("cluster.forward failpoint", "cluster.forward=error(internal)")

	if n := metric(t, coordHS.URL, "cluster_local_fallbacks"); n != 4 {
		t.Fatalf("local fallbacks = %d, want 4", n)
	}
	if n := metric(t, coordHS.URL, "cluster_jobs_dispatched"); n != 0 {
		t.Fatalf("dispatched = %d, want 0", n)
	}
}

// TestClusterExploreFanOutBitIdentical is acceptance (d): a clustered sweep
// forwards its store-missed points to workers (diskless, sharing the
// coordinator's store over HTTP) and the front is byte-identical to a
// single-node sweep — including when the routed worker is killed mid-point.
func TestClusterExploreFanOutBitIdentical(t *testing.T) {
	_, control := newTestServer(t, Config{StoreDir: t.TempDir()})

	coord, coordHS := newClusterNode(t, Config{
		Coordinator:      true,
		StoreDir:         t.TempDir(),
		EnableFailpoints: true,
	})
	_, w1HS := newClusterNode(t, Config{RemoteStoreURL: coordHS.URL, EnableFailpoints: true})
	_, w2HS := newClusterNode(t, Config{RemoteStoreURL: coordHS.URL, EnableFailpoints: true})
	coord.registry.Join("w1", w1HS.URL)
	coord.registry.Join("w2", w2HS.URL)

	sweep := func(base, blifText, failpoints string) []byte {
		t.Helper()
		status, body := post(t, base+"/v1/explore?wait=1", retimeRequest{
			BLIF:       blifText,
			Failpoints: failpoints,
		})
		if status != http.StatusOK {
			t.Fatalf("explore status = %d, body %v", status, body)
		}
		return resultBytes(t, body)
	}

	// Plain fan-out parity.
	blifA := testBLIF(t)
	want := sweep(control.URL, blifA, "")
	if got := sweep(coordHS.URL, blifA, ""); !bytes.Equal(got, want) {
		t.Fatalf("clustered front differs from single-node front:\n%s\nvs\n%s", got, want)
	}
	if n := metric(t, coordHS.URL, "cluster_remote_points"); n == 0 {
		t.Fatal("no point was forwarded to a worker")
	}
	// The worker saved its point through to the coordinator's store tier.
	if n := metric(t, w1HS.URL, "store_remote_saves") + metric(t, w2HS.URL, "store_remote_saves"); n == 0 {
		t.Fatal("no worker wrote through to the shared store")
	}
	// A repeat sweep is all store hits — same bytes, nothing forwarded.
	forwardedBefore := metric(t, coordHS.URL, "cluster_remote_points")
	if got := sweep(coordHS.URL, blifA, ""); !bytes.Equal(got, want) {
		t.Fatal("warm clustered front differs from cold front")
	}
	if n := metric(t, coordHS.URL, "cluster_remote_points"); n != forwardedBefore {
		t.Fatalf("warm sweep forwarded points: %d -> %d", forwardedBefore, n)
	}

	// Worker loss mid-sweep: a fresh circuit (fresh keys), with a per-point
	// sleep so forwarded runs linger; the first worker observed serving one
	// is killed while it runs. The sweep re-routes its points or solves them
	// locally; either way the front is byte-identical.
	blifB := clusterBLIF(t, "quickstart-b")
	wantB := sweep(control.URL, blifB, "")

	w1Runs := metric(t, w1HS.URL, "cluster_runs_served")
	w2Runs := metric(t, w2HS.URL, "cluster_runs_served")
	status, body := post(t, coordHS.URL+"/v1/explore", retimeRequest{
		BLIF:       blifB,
		Failpoints: "graph.feasible=1*sleep(1s)",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", status, body)
	}
	id := body["id"].(string)

	var victimHS *httptest.Server
	deadline := time.Now().Add(10 * time.Second)
	for victimHS == nil {
		switch {
		case metric(t, w1HS.URL, "cluster_runs_served") > w1Runs:
			victimHS = w1HS
		case metric(t, w2HS.URL, "cluster_runs_served") > w2Runs:
			victimHS = w2HS
		default:
			if time.Now().After(deadline) {
				t.Fatal("no worker ever received a forwarded point")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	victimHS.CloseClientConnections()
	victimHS.Close()

	code, view := waitStatus(t, coordHS.URL, id, StatusDone)
	if code != http.StatusOK || view["status"] != string(StatusDone) {
		t.Fatalf("sweep after worker kill: code %d, view %v", code, view)
	}
	if got := resultBytes(t, view); !bytes.Equal(got, wantB) {
		t.Fatalf("front after worker kill differs from single-node front:\n%s\nvs\n%s", got, wantB)
	}
}

// TestClusterRemoteStorePartition is acceptance (e): a diskless node layered
// on a remote store serves identical fronts cold (all misses), warm (remote
// hits), and partitioned (every remote call fails → miss → fresh solve).
func TestClusterRemoteStorePartition(t *testing.T) {
	_, control := newTestServer(t, Config{})
	blifText := testBLIF(t)

	sweep := func(base string) []byte {
		t.Helper()
		status, body := post(t, base+"/v1/explore?wait=1", retimeRequest{BLIF: blifText})
		if status != http.StatusOK {
			t.Fatalf("explore status = %d, body %v", status, body)
		}
		return resultBytes(t, body)
	}
	want := sweep(control.URL)

	_, storeHS := newClusterNode(t, Config{Coordinator: true, StoreDir: t.TempDir()})
	_, nodeHS := newClusterNode(t, Config{RemoteStoreURL: storeHS.URL})

	// Cold: all remote misses, solved fresh, written through.
	if got := sweep(nodeHS.URL); !bytes.Equal(got, want) {
		t.Fatal("cold diskless front differs from storeless front")
	}
	if n := metric(t, nodeHS.URL, "store_remote_saves"); n == 0 {
		t.Fatal("diskless node never wrote through to the remote store")
	}
	// Warm: the same sweep is served out of the remote tier.
	if got := sweep(nodeHS.URL); !bytes.Equal(got, want) {
		t.Fatal("warm diskless front differs from storeless front")
	}
	if n := metric(t, nodeHS.URL, "store_remote_hits"); n == 0 {
		t.Fatal("warm sweep never hit the remote store")
	}
	// Partition: the store node vanishes; every remote call degrades to a
	// miss and the sweep solves fresh — same bytes, never an error.
	storeHS.Close()
	if got := sweep(nodeHS.URL); !bytes.Equal(got, want) {
		t.Fatal("partitioned front differs from storeless front")
	}
	if n := metric(t, nodeHS.URL, "store_remote_errors"); n == 0 {
		t.Fatal("partitioned sweep recorded no remote store errors")
	}
}

// TestClusterHeartbeatLivenessLadder is acceptance (f): a real worker joins
// and beats over HTTP; when its beats stop landing (cluster.heartbeat
// failpoint on the coordinator) its lease walks alive → suspect → dead, and
// the first beat that lands again revives it.
func TestClusterHeartbeatLivenessLadder(t *testing.T) {
	_, coordHS := newClusterNode(t, Config{
		Coordinator: true,
		LeaseTTL:    250 * time.Millisecond,
	})
	newWorkerNode(t, Config{
		JoinURL:           coordHS.URL,
		WorkerID:          "hb-worker",
		HeartbeatInterval: 50 * time.Millisecond,
	})

	waitCounts := func(name string, pred func(alive, suspect, dead int) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			alive, suspect, dead := clusterCounts(t, coordHS.URL)
			if pred(alive, suspect, dead) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiting for %s: stuck at %d alive / %d suspect / %d dead",
					name, alive, suspect, dead)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The worker joins and stays alive while its beats land.
	waitCounts("join", func(alive, _, _ int) bool { return alive == 1 })

	// Beats stop landing: the lease lapses (suspect at 1×TTL) and the worker
	// is declared dead (3×TTL). It keeps beating into the failure the whole
	// time — the ladder is purely the coordinator's view.
	if err := failpoint.Enable("cluster.heartbeat", "error(internal)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("cluster.heartbeat")
	waitCounts("suspect", func(_, suspect, dead int) bool { return suspect+dead == 1 })
	waitCounts("dead", func(_, _, dead int) bool { return dead == 1 })

	// The partition heals: the next beat revives the worker.
	failpoint.Disable("cluster.heartbeat")
	waitCounts("revive", func(alive, _, _ int) bool { return alive == 1 })
}

// TestClusterCoordinatorRestartResumesQueued is acceptance (g): a coordinator
// goes down with queued jobs; its replacement resumes them from checkpoints
// and dispatches them to the (re-joined) worker, byte-identical to an
// uninterrupted run.
func TestClusterCoordinatorRestartResumesQueued(t *testing.T) {
	blifText := testBLIF(t)
	_, control := newTestServer(t, Config{})
	status, body := post(t, control.URL+"/v1/retime?wait=1", retimeRequest{BLIF: blifText})
	if status != http.StatusOK {
		t.Fatalf("control status = %d, body %v", status, body)
	}
	want := resultBytes(t, body)

	ckpt := t.TempDir()
	_, wHS := newClusterNode(t, Config{EnableFailpoints: true})

	coord1, coord1HS := newClusterNode(t, Config{
		Coordinator:      true,
		Workers:          1,
		CheckpointDir:    ckpt,
		EnableFailpoints: true,
	})
	coord1.registry.Join("w1", wHS.URL)

	// One slow job occupies the single executor on the worker; two more queue
	// behind it and never run before shutdown.
	status, body = post(t, coord1HS.URL+"/v1/retime", retimeRequest{
		BLIF:       blifText,
		Failpoints: "graph.minperiod=1*sleep(300ms)",
	})
	if status != http.StatusAccepted {
		t.Fatalf("slow submit status = %d, body %v", status, body)
	}
	waitMetric(t, wHS.URL, "cluster_runs_served", 1)
	var queued []string
	for i := 0; i < 2; i++ {
		status, body = post(t, coord1HS.URL+"/v1/retime", retimeRequest{BLIF: blifText})
		if status != http.StatusAccepted {
			t.Fatalf("queued submit status = %d, body %v", status, body)
		}
		queued = append(queued, body["id"].(string))
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord1.Shutdown(sctx); err != nil {
		t.Fatalf("coordinator shutdown: %v", err)
	}
	coord1HS.Close()

	// The replacement coordinator: same checkpoint dir, worker re-joined
	// before Start so the resumed queue dispatches.
	coord2 := New(Config{
		Coordinator:   true,
		CheckpointDir: ckpt,
		Logf:          quiet,
	})
	coord2.registry.Join("w1", wHS.URL)
	if err := coord2.Start(); err != nil {
		t.Fatal(err)
	}
	coord2HS := httptest.NewServer(coord2.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = coord2.Shutdown(ctx)
		coord2HS.Close()
	})

	for _, id := range queued {
		code, view := waitStatus(t, coord2HS.URL, id, StatusDone)
		if code != http.StatusOK || view["status"] != string(StatusDone) {
			t.Fatalf("resumed job %s: code %d, view %v", id, code, view)
		}
		if got := resultBytes(t, view); !bytes.Equal(got, want) {
			t.Fatalf("resumed job %s differs from uninterrupted run:\n%s\nvs\n%s", id, got, want)
		}
		if view["worker"] != "w1" {
			t.Fatalf("resumed job %s worker = %v, want w1 (dispatched)", id, view["worker"])
		}
	}
	if n := metric(t, coord2HS.URL, "jobs_resumed"); n != 2 {
		t.Fatalf("jobs resumed = %d, want 2", n)
	}
}
