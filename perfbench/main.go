// Command perfbench is the repository benchmark. One run takes one seeded
// workload through the retiming pipeline or the retiming service, checks
// every output, and prints its metrics by name and unit. The last line of
// standard output is the result object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics, or with -trace 1 the per-layer metrics of
// a traced run. run.sh builds and runs it from a checkout:
//
//	bash perfbench/run.sh --workload table2 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh -selfcheck
//	bash perfbench/run.sh -capacity --seconds 20
//
// README.md maps every metric to the layer it measures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measured values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runConfig is what one workload run is told.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	tiny    bool   // self-check sizes
	tmp     string // scratch directory of the run, inside the checkout
}

// workloads maps each workload to its runner.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"table2":    runTable2,
	"deep_pipe": runDeepPipe,
	"serve":     runServe,
}

// deadline bounds a whole run: a stuck run exits 3 and names the step it was
// in instead of hanging. A measured run takes its seconds plus a few more.
const deadline = 170 * time.Second

// currentStep names what the run is doing, for the deadline message.
var currentStep atomic.Value

func step(format string, args ...any) { currentStep.Store(fmt.Sprintf(format, args...)) }

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload to run: table2, deep_pipe or serve")
	seed := fset.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fset.Int("seconds", 20, "seconds the run measures")
	traceMode := fset.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead")
	selfCheck := fset.Bool("selfcheck", false, "run every workload at self-check size, untraced and traced, and check the metrics against BENCHMARK.json")
	capacityRun := fset.Bool("capacity", false, "run the serve mix closed-loop at two clients for -seconds and print the jobs completed per second")
	out := fset.String("out", "", "write the run's record (host shape, provenance, result) to this file")
	baseline := fset.String("baseline", "", "compare with a record written by -out; refused when the host shape differs")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	step("start")
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: deadline %v exceeded during %v\n", deadline, currentStep.Load())
		os.RemoveAll(dir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	if *selfCheck {
		if err := runSelfCheck(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: self-check: %v\n", err)
			return 1
		}
		fmt.Println("perfbench: self-check passed")
		return 0
	}
	if *capacityRun {
		rate, err := capacity(runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: dir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: capacity: %v\n", err)
			return 1
		}
		fmt.Printf("serve capacity: %.2f jobs/s closed-loop at 2 clients\n", rate)
		return 0
	}

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceMode == 1,
		tmp:     dir,
	}
	res, err := runWorkload(*workload, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rec := record{Provenance: newProvenance(*workload, cfg), Result: res}
	rec.print(os.Stdout)
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if *baseline != "" {
		if err := compare(os.Stdout, *baseline, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d attempts failed\n", *workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// scratchDir creates the run's scratch directory under .bench_build in the
// checkout, which run.sh makes the working directory.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// runWorkload runs one workload in a scratch directory of its own.
func runWorkload(name string, cfg runConfig) (*result, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want table2, deep_pipe or serve)", name)
	}
	tmp, err := os.MkdirTemp(cfg.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	return fn(context.Background(), cfg)
}

// hostShape is what a run's numbers depend on besides the code: results are
// compared only between runs of the same shape.
type hostShape struct {
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// provenance says where a result came from.
type provenance struct {
	Host      hostShape `json:"host"`
	GoVersion string    `json:"go_version"`
	Commit    string    `json:"commit"`
	SourceSHA string    `json:"source_sha256"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
}

// record is everything one run reports.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     *result    `json:"result"`
}

func newProvenance(workload string, cfg runConfig) provenance {
	return provenance{
		Host: hostShape{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		GoVersion: runtime.Version(),
		Commit:    commit(),
		SourceSHA: sourceDigest("."),
		Workload:  workload,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds.Seconds(),
		Traced:    cfg.traced,
	}
}

// commit is the VCS revision the binary was built from. A checkout that is
// not a git repository has none; the source digest identifies the code then.
func commit() string {
	rev, suffix := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				suffix = "+modified"
			}
		}
	}
	return rev + suffix
}

// sourceDigest hashes every Go source and module file under root in path
// order, skipping dot directories such as .git and .bench_build.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (r record) print(w io.Writer) {
	res := r.Result
	fmt.Fprintf(w, "perfbench %s seed %d: correct=%t attempted=%d failed=%d\n",
		r.Provenance.Workload, r.Provenance.Seed, res.Correct, res.Attempted, res.Failed)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	prov, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(w, "provenance %s\n", prov)
}

func (r record) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints each metric against the record at path. A record from
// another host shape, workload or trace mode is refused: the benchmark's
// numbers only mean something relative to the same host and settings.
func compare(w io.Writer, path string, cur record) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base record
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Result == nil {
		return fmt.Errorf("baseline %s holds no result", path)
	}
	bp, cp := base.Provenance, cur.Provenance
	if bp.Host != cp.Host {
		return fmt.Errorf("baseline %s ran on host %+v, this run on %+v: refusing to compare across host shapes", path, bp.Host, cp.Host)
	}
	if bp.Workload != cp.Workload || bp.Traced != cp.Traced {
		return fmt.Errorf("baseline %s is a %s run (traced=%t), not %s (traced=%t): refusing to compare",
			path, bp.Workload, bp.Traced, cp.Workload, cp.Traced)
	}
	for _, name := range sortedKeys(cur.Result.Metrics) {
		b, ok := base.Result.Metrics[name]
		if !ok {
			continue
		}
		c := cur.Result.Metrics[name]
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(c.Value-b.Value)/b.Value)
		}
		fmt.Fprintf(w, "  vs baseline %-30s %14.6g -> %14.6g %s\n", name, b.Value, c.Value, change)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runSelfCheck runs every workload of BENCHMARK.json at self-check size,
// untraced and traced, and checks that each run is correct and prints
// exactly the metrics, in the units, BENCHMARK.json lists for its mode, and
// that no end-to-end metric reads 0.
func runSelfCheck(dir string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runWorkload(wl.Name, runConfig{seed: 1, seconds: time.Second, traced: traced, tiny: true, tmp: dir})
			if err != nil {
				return fmt.Errorf("%s traced=%t: %w", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				return fmt.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				return fmt.Errorf("%s traced=%t: %d metrics printed, BENCHMARK.json lists %d",
					wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					return fmt.Errorf("%s traced=%t: metric %s (%s) missing or in another unit", wl.Name, traced, m.Name, m.Unit)
				}
				if !traced && got.Value <= 0 {
					return fmt.Errorf("%s: end-to-end metric %s reads %v", wl.Name, m.Name, got.Value)
				}
			}
			fmt.Printf("self-check %s traced=%t: ok, %d attempted\n", wl.Name, traced, res.Attempted)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
