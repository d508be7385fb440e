package main

// The serve workload: an open loop of independent users offering retime,
// explore and batch jobs at a fixed seeded Poisson rate to an in-process
// coordinator with two single-executor workers over loopback HTTP. Per-job
// solver work is small, so admission, DRR queueing, dispatch and the store
// show up in the latency.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/explore"
	"mcretiming/internal/netlist"
	"mcretiming/internal/server"
	"mcretiming/internal/store"
	"mcretiming/internal/tenant"
	"mcretiming/internal/trace"
)

// serveTenants submit the jobs, at the server's default equal weights; the
// first also sends the batches.
var serveTenants = [2]string{"tenant-a", "tenant-b"}

// serveMix is the serve workload's traffic.
type serveMix struct {
	rate        float64       // arrivals per second
	exploreFrac float64       // share of arrivals that are explore jobs
	batchFrac   float64       // share of arrivals that are /v1/batch submissions
	batchSize   int           // retime jobs per batch
	maxPoints   int           // points per explore sweep
	warmUp      time.Duration // load offered before the measured one
	retime      []string      // circuits retime jobs draw from
	explore     []string      // circuits explore jobs draw from
}

// drainWithin is how soon after the last due time every job must have
// finished; a run that misses it is invalid.
const drainWithin = 10 * time.Second

// serveMixFor returns the traffic. Retime jobs draw from three Table-2 BLIFs
// in fixed shares: two thirds C8 (about 9 ms a solve), two ninths C1 (about
// 5 ms) and one ninth C9 (about 40 ms). The latency median then lies inside
// the dense cluster of C8 jobs and the 95th percentile inside C9's. Equal
// shares would put the median on the edge of a cluster, where it moves with
// every change in how many jobs waited. The circuits that take 90 to 230 ms
// (C4, C6, C7, C10) are table2's. Explore jobs sweep three small mapped
// profiles, so their first sweep fills the store and repeats read from it.
// The rate is about a fifth of the jobs per second this mix completes
// closed-loop at two clients (-capacity; README.md): nearer half, queueing
// multiplies the host's own run-to-run noise into the median.
func serveMixFor(tiny bool) serveMix {
	if tiny {
		return serveMix{rate: 12, exploreFrac: 0.3, batchFrac: 0.2, batchSize: 2, maxPoints: 2, warmUp: time.Second,
			retime: []string{"C1", "C2", "C3"}, explore: []string{"C2"}}
	}
	return serveMix{rate: 20, exploreFrac: 0.1, batchFrac: 0.04, batchSize: 3, maxPoints: 3, warmUp: 10 * time.Second,
		retime: []string{"C8", "C1", "C8", "C8", "C9", "C8", "C1", "C8", "C8"}, explore: []string{"C2", "C3", "C8"}}
}

// arrival is one scheduled submission.
type arrival struct {
	due    time.Duration // offset from the start of the load
	kind   string        // "retime", "explore" or "batch"
	tenant string
	inputs []string // circuit per job; a batch has several
}

// schedule draws the open-loop arrivals of a span from seed: a Poisson
// process at mix.rate conditioned on its expected count n = rate × span,
// that is n independent uniform due times, each an independent user's
// request. The kinds and circuits come in the mix's exact proportions, in
// a seeded order, so seeds differ in when requests come and in which order,
// not in how much work they bring.
func schedule(seed int64, mix serveMix, span time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(mix.rate*span.Seconds()+0.5))
	nBatch := int(mix.batchFrac*float64(n) + 0.5)
	nExplore := int(mix.exploreFrac*float64(n) + 0.5)
	var retimed, explored int
	next := func(names []string, i *int) string {
		*i++
		return names[(*i-1)%len(names)]
	}
	out := make([]arrival, n)
	for i := range out {
		a := &out[i]
		switch {
		case i < nBatch:
			a.kind = "batch"
			for j := 0; j < mix.batchSize; j++ {
				a.inputs = append(a.inputs, next(mix.retime, &retimed))
			}
		case i < nBatch+nExplore:
			a.kind, a.inputs = "explore", []string{next(mix.explore, &explored)}
		default:
			a.kind, a.inputs = "retime", []string{next(mix.retime, &retimed)}
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for i := range out {
		out[i].due = dues[i]
		out[i].tenant = serveTenants[i%2]
		if out[i].kind == "batch" {
			out[i].tenant = serveTenants[0]
		}
	}
	return out
}

// serveInputs maps each circuit the mix draws from to its mapped BLIF, as a
// client would upload it.
func serveInputs(mix serveMix, tiny bool) (map[string]string, error) {
	circuits, err := table2Inputs(1, tiny)
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	for _, name := range append(append([]string(nil), mix.retime...), mix.explore...) {
		used[name] = true
	}
	out := map[string]string{}
	for _, c := range circuits {
		if !used[c.Name] {
			continue
		}
		mapped, err := mapCircuit(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		var buf strings.Builder
		if err := blif.Write(&buf, mapped); err != nil {
			return nil, err
		}
		out[c.Name] = buf.String()
	}
	return out, nil
}

// node is one in-process mcretimed on a loopback ephemeral port.
type node struct {
	url  string
	srv  *server.Server
	http *http.Server
	done chan struct{} // closed once the HTTP server has returned
}

func startNode(cfg server.Config, l net.Listener) (*node, error) {
	n := &node{url: cfg.AdvertiseURL, srv: server.New(cfg), done: make(chan struct{})}
	n.http = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(l)
	}()
	if err := n.srv.Start(); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// stop shuts the node down and waits until its HTTP server has returned.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	_ = n.http.Shutdown(ctx)
	<-n.done
}

// cluster is the service under test: a coordinator owning the result store
// and two workers with one executor each, sharing that store through the
// coordinator's remote tier.
type cluster struct {
	base  string  // coordinator URL
	nodes []*node // coordinator first
	once  sync.Once
}

func quiet(string, ...any) {}

func listen() (net.Listener, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return l, "http://" + l.Addr().String(), nil
}

func startCluster(dir string) (*cluster, error) {
	l, url, err := listen()
	if err != nil {
		return nil, err
	}
	coord, err := startNode(server.Config{
		Coordinator: true, Workers: 2, QueueSize: 1024, AdvertiseURL: url,
		StoreDir: filepath.Join(dir, "store"), Logf: quiet,
	}, l)
	if err != nil {
		l.Close()
		return nil, err
	}
	c := &cluster{base: url, nodes: []*node{coord}}
	for i := 1; i <= 2; i++ {
		l, wurl, err := listen()
		if err != nil {
			c.stop()
			return nil, err
		}
		w, err := startNode(server.Config{
			Workers: 1, JoinURL: url, AdvertiseURL: wurl, WorkerID: fmt.Sprintf("w%d", i),
			RemoteStoreURL: url, Logf: quiet,
		}, l)
		if err != nil {
			l.Close()
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, w)
	}
	if err := c.waitWorkers(2, 10*time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitWorkers polls the coordinator until n workers are alive.
func (c *cluster) waitWorkers(n int, within time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(within)
	for {
		var body struct {
			Alive int `json:"alive"`
		}
		if err := getJSON(client, c.base+"/v1/cluster/workers", &body); err == nil && body.Alive >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d workers joined within %v", body.Alive, n, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the workers down, then the coordinator.
func (c *cluster) stop() {
	c.once.Do(func() {
		for i := len(c.nodes) - 1; i >= 0; i-- {
			c.nodes[i].stop()
		}
	})
}

// counters scrapes every node's /metrics.
func (c *cluster) counters() ([]map[string]float64, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	var out []map[string]float64
	for _, n := range c.nodes {
		resp, err := client.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 2 {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					m[strings.TrimPrefix(f[0], "mcretimed_")] = v
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(v)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

// jobRec is what the load generator learns about one job.
type jobRec struct {
	kind, input string // "retime" or "explore", and the circuit
	id          string
	due         time.Time
	status      string // "done", "failed", "rejected" or "error"; "" while outstanding
	queued      time.Time
	started     time.Time
	finished    time.Time
	digest      string  // SHA-256 of the result: the retimed BLIF or the front's JSON
	quality     quality // retime jobs
}

// send is one submission as the client saw it.
type send struct {
	late, admit time.Duration // sent after the due time; POST round trip
	rejected    bool          // answered 429
}

// loadgen is the open-loop client: one connection submits on schedule and
// one reads job views.
type loadgen struct {
	base           string
	mix            serveMix
	blifs          map[string]string
	submitC, readC *http.Client
}

// oneConn is an HTTP client holding at most one connection.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func (g *loadgen) close() {
	g.submitC.CloseIdleConnections()
	g.readC.CloseIdleConnections()
}

// bodies renders every arrival's request body ahead of the load, so the
// generator spends its time sending, not encoding. Arrivals of the same
// kind and circuit share one body. Retime jobs ask for a serial solve: each
// worker has one executor, and a parallel solve would take the core the
// other worker's job runs on.
func (g *loadgen) bodies(sched []arrival) ([][]byte, error) {
	type job struct {
		BLIF    string         `json:"blif"`
		Options map[string]int `json:"options,omitempty"`
	}
	member := func(kind, input string) job {
		j := job{BLIF: g.blifs[input]}
		if kind == "explore" {
			j.Options = map[string]int{"max_points": g.mix.maxPoints}
		} else {
			j.Options = map[string]int{"parallelism": 1}
		}
		return j
	}
	shared := map[string][]byte{}
	out := make([][]byte, len(sched))
	for i, a := range sched {
		key := a.kind + ":" + strings.Join(a.inputs, ",")
		if body, ok := shared[key]; ok {
			out[i] = body
			continue
		}
		var v any = member(a.kind, a.inputs[0])
		if a.kind == "batch" {
			var jobs []job
			for _, in := range a.inputs {
				jobs = append(jobs, member("retime", in))
			}
			v = struct {
				Jobs []job `json:"jobs"`
			}{jobs}
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		shared[key], out[i] = body, body
	}
	return out, nil
}

// run offers sched open-loop from start: each arrival is sent at its due
// time whatever became of earlier ones, and the reader collects every
// admitted job as it finishes. A queue still not empty drainWithin after the
// last due time makes the run invalid, not slow.
func (g *loadgen) run(sched []arrival, start time.Time) ([]*jobRec, []send, error) {
	bodies, err := g.bodies(sched)
	if err != nil {
		return nil, nil, err
	}
	jobs := 0
	for _, a := range sched {
		jobs += len(a.inputs)
	}
	admitted := make(chan *jobRec, jobs) // one slot per job: the submitter never blocks
	drainBy := start.Add(sched[len(sched)-1].due + drainWithin)
	readErr := make(chan error, 1)
	go func() { readErr <- g.read(admitted, drainBy) }()

	var (
		recs  []*jobRec
		sends []send
	)
	for i, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		select {
		case err := <-readErr:
			close(admitted)
			return nil, nil, err
		default:
		}
		r, s := g.submit(a, bodies[i], due, admitted)
		recs, sends = append(recs, r...), append(sends, s)
	}
	close(admitted)
	return recs, sends, <-readErr
}

// warmUp offers the retime and batch part of the mix for mix.warmUp before
// the measured load, from a schedule of its own drawn from seed, and drops
// what it measures. The service keeps every finished job, so its live heap
// grows through a run. A cold process collects garbage far more often and
// its first seconds are slower than the rest, by how much depends on which
// jobs come first. Explore jobs wait for the measured load, whose first
// sweeps write to the store.
func (g *loadgen) warmUp(seed int64, mix serveMix) error {
	mix.exploreFrac = 0
	_, _, err := g.run(schedule(seed+warmUpSeed, mix, mix.warmUp), time.Now())
	return err
}

// warmUpSeed offsets the warm-up schedule's seed from the measured one's.
const warmUpSeed = 1 << 32

var submitPath = map[string]string{"retime": "/v1/retime", "explore": "/v1/explore", "batch": "/v1/batch"}

// submit POSTs one arrival and hands each admitted job to the reader.
func (g *loadgen) submit(a arrival, body []byte, due time.Time, admitted chan<- *jobRec) ([]*jobRec, send) {
	recs := make([]*jobRec, len(a.inputs))
	for i, in := range a.inputs {
		kind := a.kind
		if kind == "batch" {
			kind = "retime"
		}
		recs[i] = &jobRec{kind: kind, input: in, due: due}
	}
	fail := func(status string) {
		for _, r := range recs {
			r.status = status
		}
	}
	req, err := http.NewRequest(http.MethodPost, g.base+submitPath[a.kind], bytes.NewReader(body))
	if err != nil {
		fail("error")
		return recs, send{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tenant.Header, a.tenant)
	sent := time.Now()
	resp, err := g.submitC.Do(req)
	s := send{late: sent.Sub(due), admit: time.Since(sent)}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve: submit: %v\n", err)
		fail("error")
		return recs, s
	}
	defer resp.Body.Close()
	var ack struct {
		ID   string   `json:"id"`
		Jobs []string `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body)
	ids := []string{ack.ID}
	if a.kind == "batch" {
		ids = ack.Jobs
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		s.rejected = true
		fail("rejected")
	case resp.StatusCode != http.StatusAccepted || err != nil || len(ids) != len(recs):
		fmt.Fprintf(os.Stderr, "perfbench: serve: submit answered %d\n", resp.StatusCode)
		fail("error")
	default:
		for i, r := range recs {
			r.id = ids[i]
			admitted <- r
		}
	}
	return recs, s
}

// pollInterval paces the reader's sweeps over outstanding jobs. Finish times
// come from the job views, so it bounds how long a finished job waits to be
// read, not the latency measured.
const pollInterval = 20 * time.Millisecond

// read polls each outstanding job's view until the job is terminal, so
// finish times are read as jobs finish, until the submitter is done and
// nothing is outstanding, or drainBy has passed.
func (g *loadgen) read(admitted <-chan *jobRec, drainBy time.Time) error {
	var open []*jobRec
	for more := true; more || len(open) > 0; {
	collect:
		for more {
			select {
			case r, ok := <-admitted:
				if !ok {
					more = false
					break collect
				}
				open = append(open, r)
			default:
				break collect
			}
		}
		if time.Now().After(drainBy) {
			return fmt.Errorf("invalid run: %d job(s) still outstanding %v after the last due time", len(open), drainWithin)
		}
		kept := open[:0]
		for _, r := range open {
			done, err := g.poll(r)
			if err != nil {
				return err
			}
			if !done {
				kept = append(kept, r)
			}
		}
		open = kept
		time.Sleep(pollInterval)
	}
	return nil
}

// jobView is the part of GET /v1/jobs/{id} the load generator reads.
type jobView struct {
	Status     string `json:"status"`
	QueuedAt   string `json:"queued_at"`
	StartedAt  string `json:"started_at"`
	FinishedAt string `json:"finished_at"`
	Result     *struct {
		BLIF   string `json:"blif"`
		Report *struct {
			PeriodBeforePS int64 `json:"period_before_ps"`
			PeriodAfterPS  int64 `json:"period_after_ps"`
			RegsBefore     int   `json:"regs_before"`
			RegsAfter      int   `json:"regs_after"`
		} `json:"report"`
		Front *explore.Front `json:"front"`
	} `json:"result"`
}

// poll reads one job's view and records it once the job is terminal.
func (g *loadgen) poll(r *jobRec) (bool, error) {
	var v jobView
	if err := getJSON(g.readC, g.base+"/v1/jobs/"+r.id, &v); err != nil {
		return false, fmt.Errorf("reading job %s: %w", r.id, err)
	}
	if v.Status != "done" && v.Status != "failed" {
		return false, nil
	}
	r.status = v.Status
	for _, ts := range []struct {
		dst *time.Time
		src string
	}{{&r.queued, v.QueuedAt}, {&r.started, v.StartedAt}, {&r.finished, v.FinishedAt}} {
		t, err := time.Parse(time.RFC3339Nano, ts.src)
		if err != nil {
			return false, fmt.Errorf("job %s: %w", r.id, err)
		}
		*ts.dst = t
	}
	if v.Status != "done" || v.Result == nil {
		return true, nil
	}
	if r.kind == "explore" {
		if v.Result.Front == nil {
			return true, nil
		}
		data, err := json.Marshal(v.Result.Front)
		if err != nil {
			return false, err
		}
		r.digest = digest(data)
		return true, nil
	}
	r.digest = digest([]byte(v.Result.BLIF))
	if rep := v.Result.Report; rep != nil {
		r.quality = quality{rep.PeriodBeforePS, rep.PeriodAfterPS, rep.RegsBefore, rep.RegsAfter}
	}
	return true, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// serveEnv is one set-up of the serve workload.
type serveEnv struct {
	blifs   map[string]string
	cluster *cluster
}

func runServe(ctx context.Context, cfg runConfig) (*result, error) {
	mix := serveMixFor(cfg.tiny)
	step("serve set-up")
	env, setupS, err := setUp(func() (*serveEnv, error) {
		blifs, err := serveInputs(mix, cfg.tiny)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(cfg.tmp, "cluster-")
		if err != nil {
			return nil, err
		}
		cl, err := startCluster(dir)
		if err != nil {
			return nil, err
		}
		return &serveEnv{blifs: blifs, cluster: cl}, nil
	}, func(e *serveEnv) { e.cluster.stop() })
	if err != nil {
		return nil, err
	}
	defer env.cluster.stop()

	sched := schedule(cfg.seed, mix, cfg.seconds)
	g := &loadgen{base: env.cluster.base, mix: mix, blifs: env.blifs, submitC: oneConn(), readC: oneConn()}
	defer g.close()
	step("serve warm-up")
	if err := g.warmUp(cfg.seed, mix); err != nil {
		return nil, err
	}
	warmed, err := env.cluster.counters()
	if err != nil {
		return nil, err
	}
	step("serve load (%d arrivals)", len(sched))
	debug.FreeOSMemory()
	mem := startMemPeak(time.Second)
	start := time.Now()
	jobs, sends, err := g.run(sched, start)
	peakMB := mem.stopMB()
	if err != nil {
		return nil, err
	}
	retainedMB := retainedHeapMB()
	step("serve metrics")
	counters, err := env.cluster.counters()
	if err != nil {
		return nil, err
	}
	for i, m := range counters { // the measured load's share alone
		for k := range m {
			m[k] -= warmed[i][k]
		}
	}

	res := &result{Attempted: len(jobs)}
	var lat, wait, runT []float64
	var last time.Time
	served := map[string]quality{}
	for _, r := range jobs {
		if r.status != "done" {
			res.Failed++
			continue
		}
		lat = append(lat, ms(r.finished.Sub(r.due)))
		wait = append(wait, ms(r.started.Sub(r.queued)))
		runT = append(runT, ms(r.finished.Sub(r.started)))
		if r.finished.After(last) {
			last = r.finished
		}
		if r.kind == "retime" {
			served[r.input] = r.quality
		}
	}
	fmt.Printf("samples: %d jobs in %d submissions, %d done\n", len(jobs), len(sends), len(lat))
	printClusters(jobs)

	step("serve correctness gate")
	var l layers
	if cfg.traced {
		l = layers{}
	}
	mismatches, err := checkServed(ctx, cfg, mix, env.blifs, jobs, l)
	if err != nil {
		return nil, err
	}
	res.Failed += mismatches
	res.Correct = res.Failed == 0

	if !cfg.traced {
		qs := make([]quality, 0, len(served))
		for _, name := range sortedKeys(served) {
			qs = append(qs, served[name])
		}
		period, regs := qualityRatios(qs)
		m := metricSet{}
		m.set("setup_s", setupS, "s")
		m.set("wall_s", last.Sub(start).Seconds(), "s")
		m.set("latency_p50_ms", median(lat), "ms")
		m.set("latency_p95_ms", percentile(lat, 95), "ms")
		m.set("period_ratio", period, "ratio")
		m.set("regs_ratio", regs, "ratio")
		m.set("peak_rss_mb", peakMB, "MB")
		m.set("retained_heap_mb", retainedMB, "MB")
		res.Metrics = m
		return res, nil
	}

	var admit, late []float64
	for _, s := range sends {
		admit = append(admit, ms(s.admit))
		late = append(late, ms(s.late))
		if s.rejected {
			l["server.rejected"]++
		}
	}
	var hits, misses float64
	for _, c := range counters {
		hits += c["store_hits"]
		misses += c["store_misses"]
		l["server.retried"] += c["jobs_retried"]
	}
	coord := counters[0]
	dispatched, fallbacks := coord["cluster_jobs_dispatched"], coord["cluster_local_fallbacks"]
	l["server.admit_ms_p50"] = median(admit)
	l["loadgen.late_p95_ms"] = percentile(late, 95)
	l["tenant.queue_wait_ms_p50"] = median(wait)
	l["tenant.queue_wait_ms_p95"] = percentile(wait, 95)
	l["cluster.run_ms_p50"] = median(runT)
	l["cluster.run_ms_p95"] = percentile(runT, 95)
	l["cluster.dispatched"] = dispatched
	l["cluster.local_fallback_ratio"] = ratio(fallbacks, dispatched+fallbacks)
	l["store.hit_ratio"] = ratio(hits, hits+misses)
	res.Metrics = l.metrics()
	return res, nil
}

// printClusters prints the latency quartiles of each kind and circuit of the
// mix, which shows where the overall percentiles fall.
func printClusters(jobs []*jobRec) {
	by := map[string][]float64{}
	for _, r := range jobs {
		if r.status == "done" {
			key := r.kind + ":" + r.input
			by[key] = append(by[key], ms(r.finished.Sub(r.due)))
		}
	}
	for _, key := range sortedKeys(by) {
		xs := by[key]
		fmt.Printf("latency %-14s n=%4d p25 %7.2f p50 %7.2f p75 %7.2f p95 %7.2f ms\n", key, len(xs),
			percentile(xs, 25), median(xs), percentile(xs, 75), percentile(xs, 95))
	}
}

// checkServed is the serve correctness gate. It solves each distinct input
// of the run in process — the calls a worker makes for a job — and counts
// the served results that are not byte-identical to it. Traced (l non-nil),
// it repeats the retime references traced, which gives the per-layer split
// of a served job's solve and the tracing overhead, and replays the explore
// inputs through explore.Sweep on a fresh store and then on the filled one,
// whose fronts must equal the reference too.
func checkServed(ctx context.Context, cfg runConfig, mix serveMix, blifs map[string]string, jobs []*jobRec, l layers) (int, error) {
	want := map[string]string{}
	var untraced, traced time.Duration
	for _, r := range jobs {
		key := r.kind + ":" + r.input
		if _, ok := want[key]; ok || r.status != "done" {
			continue
		}
		text := blifs[r.input]
		var err error
		if r.kind == "explore" {
			want[key], err = referenceFront(ctx, text, mix.maxPoints, nil, nil)
		} else {
			t0 := time.Now()
			want[key], err = referenceRetime(ctx, text, nil)
			untraced += time.Since(t0)
			if err == nil && l != nil {
				t0 = time.Now()
				_, err = referenceRetime(ctx, text, l)
				traced += time.Since(t0)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("reference %s: %w", key, err)
		}
	}
	mismatches := 0
	for _, r := range jobs {
		if r.status == "done" && r.digest != want[r.kind+":"+r.input] {
			fmt.Fprintf(os.Stderr, "perfbench: serve: job %s (%s %s) differs from the in-process result\n", r.id, r.kind, r.input)
			mismatches++
		}
	}
	if l == nil {
		return mismatches, nil
	}
	l["trace.overhead_ratio"] = ratio(float64(traced), float64(untraced))

	dir, err := os.MkdirTemp(cfg.tmp, "replay-")
	if err != nil {
		return 0, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	names := append([]string(nil), mix.explore...)
	sort.Strings(names)
	for _, name := range names {
		ref, ok := want["explore:"+name]
		if !ok {
			continue
		}
		rec := trace.NewRecorder()
		t0 := time.Now()
		cold, err := referenceFront(ctx, blifs[name], mix.maxPoints, st, rec)
		l["explore.cold_ms"] += ms(time.Since(t0))
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		warm, err := referenceFront(ctx, blifs[name], mix.maxPoints, st, nil)
		l["explore.warm_ms"] += ms(time.Since(t0))
		if err != nil {
			return 0, err
		}
		l["explore.points"] += float64(rec.Counter("explore-points"))
		if cold != ref || warm != ref {
			fmt.Fprintf(os.Stderr, "perfbench: serve: explore replay of %s differs from the reference front\n", name)
			mismatches++
		}
	}
	return mismatches, nil
}

// referenceRetime is what a worker does for a retime job, in process: parse,
// retime, write. It returns the SHA-256 of the written BLIF.
func referenceRetime(ctx context.Context, text string, l layers) (string, error) {
	var c *netlist.Circuit
	if err := l.time("blif.read_ms", func() (err error) {
		c, err = blif.Read(strings.NewReader(text))
		return err
	}); err != nil {
		return "", err
	}
	out, _, err := retime(ctx, c, l)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := l.time("blif.write_ms", func() error { return blif.Write(&buf, out) }); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

// referenceFront is the service's explore job in process. It returns the
// SHA-256 of the front's JSON.
func referenceFront(ctx context.Context, text string, maxPoints int, st *store.Store, tr trace.Sink) (string, error) {
	c, err := blif.Read(strings.NewReader(text))
	if err != nil {
		return "", err
	}
	opts := explore.Options{Core: retimeOpts, MaxPoints: maxPoints, Store: st}
	if tr != nil {
		opts.Trace = tr
	}
	front, err := explore.Sweep(ctx, c, opts)
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(front)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// capacity runs the serve mix closed-loop for cfg.seconds against the same
// cluster: two clients, each sending its next arrival once every job of its
// previous one has finished. It returns the jobs completed per second, the
// figure the open-loop rate is sized against.
func capacity(cfg runConfig) (float64, error) {
	mix := serveMixFor(cfg.tiny)
	blifs, err := serveInputs(mix, cfg.tiny)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(cfg.tmp, "cluster-")
	if err != nil {
		return 0, err
	}
	cl, err := startCluster(dir)
	if err != nil {
		return 0, err
	}
	defer cl.stop()
	sched := schedule(cfg.seed, mix, cfg.seconds)
	bodies, err := (&loadgen{mix: mix, blifs: blifs}).bodies(sched)
	if err != nil {
		return 0, err
	}
	var (
		next, done atomic.Int64
		wg         sync.WaitGroup
		errs       = make(chan error, 2) // one per client
	)
	start := time.Now()
	for range 2 {
		client := oneConn()
		g := &loadgen{base: cl.base, mix: mix, blifs: blifs, submitC: client, readC: client}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer g.close()
			for time.Since(start) < cfg.seconds {
				i := int(next.Add(1)-1) % len(sched)
				n, err := g.closedLoop(sched[i], bodies[i])
				if err != nil {
					errs <- err
					return
				}
				done.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	rate := float64(done.Load()) / time.Since(start).Seconds()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	return rate, nil
}

// closedLoop sends one arrival and waits until every job of it has finished,
// returning how many jobs it held.
func (g *loadgen) closedLoop(a arrival, body []byte) (int, error) {
	recs, _ := g.submit(a, body, time.Now(), make(chan *jobRec, len(a.inputs)))
	for _, r := range recs {
		if r.id == "" {
			return 0, fmt.Errorf("%s submission: %s", a.kind, r.status)
		}
		for {
			finished, err := g.poll(r)
			if err != nil {
				return 0, err
			}
			if finished {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if r.status != "done" {
			return 0, fmt.Errorf("job %s %s", r.id, r.status)
		}
	}
	return len(recs), nil
}
