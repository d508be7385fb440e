package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mcretiming/internal/core"
	"mcretiming/internal/explore"
)

// JobOptions is the serializable subset of core.Options a client may set.
// The zero value asks for minimum area at the minimum feasible period — the
// same default as the mcretime CLI. Decoding ignores unknown fields, so
// requests, checkpoints and replicated snapshots that still carry the
// retired "engine" or "sat_justify" field run unchanged: on the single solve
// core, with BDD justification escalating to SAT only past its node budget.
type JobOptions struct {
	// Objective: "" or "min-area" (minimum area at minimum period),
	// "min-period", or "min-area-at-period" (requires TargetPeriodPS).
	Objective      string `json:"objective,omitempty"`
	TargetPeriodPS int64  `json:"target_period_ps,omitempty"`

	ForwardOnly     bool `json:"forward_only,omitempty"`
	DisableSharing  bool `json:"disable_sharing,omitempty"`
	DisableJustify  bool `json:"disable_justify,omitempty"`
	CheckInvariants bool `json:"check_invariants,omitempty"`
	// Parallelism is the width of an exploration job's period sweep: how
	// many points solve concurrently (0 = GOMAXPROCS). It never changes the
	// result. Retime jobs ignore it: the single solve is serial.
	Parallelism int `json:"parallelism,omitempty"`

	// TimeoutMS overrides the server's default per-job deadline;
	// negative disables the deadline entirely.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxPoints caps an exploration job's solved points (0 = all candidate
	// periods). Ignored by retime jobs.
	MaxPoints int `json:"max_points,omitempty"`

	Budgets BudgetSpec `json:"budgets,omitempty"`
}

// BudgetSpec mirrors core.Budgets: 0 = solver default, negative = unlimited.
type BudgetSpec struct {
	BDDNodes          int `json:"bdd_nodes,omitempty"`
	SATConflicts      int `json:"sat_conflicts,omitempty"`
	FlowAugmentations int `json:"flow_augmentations,omitempty"`
	MinAreaRounds     int `json:"minarea_rounds,omitempty"`
}

// coreOptions translates the wire options into engine options.
func (o JobOptions) coreOptions() (core.Options, error) {
	opts := core.Options{
		ForwardOnly:     o.ForwardOnly,
		DisableSharing:  o.DisableSharing,
		DisableJustify:  o.DisableJustify,
		CheckInvariants: o.CheckInvariants,
		Budgets: core.Budgets{
			BDDNodes:          o.Budgets.BDDNodes,
			SATConflicts:      o.Budgets.SATConflicts,
			FlowAugmentations: o.Budgets.FlowAugmentations,
			MinAreaRounds:     o.Budgets.MinAreaRounds,
		},
	}
	switch o.Objective {
	case "", "min-area":
		opts.Objective = core.MinAreaAtMinPeriod
	case "min-period":
		opts.Objective = core.MinPeriod
	case "min-area-at-period":
		if o.TargetPeriodPS <= 0 {
			return opts, fmt.Errorf("objective %q requires target_period_ps > 0", o.Objective)
		}
		opts.Objective = core.MinAreaAtPeriod
		opts.TargetPeriod = o.TargetPeriodPS
	default:
		return opts, fmt.Errorf("unknown objective %q", o.Objective)
	}
	return opts, nil
}

// Job kinds: a single-point retiming or a design-space exploration sweep.
const (
	KindRetime  = "" // the default, kept empty for checkpoint compatibility
	KindExplore = "explore"
)

// JobSpec is everything needed to (re-)run a job: it is what the submission
// endpoint records and what graceful shutdown checkpoints to disk. Kind
// selects the flow (retime vs explore); checkpointed explore jobs resume as
// explore jobs, and their solved points are typically already in the result
// store, so a resumed sweep is mostly loads.
type JobSpec struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind,omitempty"`
	BLIF       string     `json:"blif"`
	Options    JobOptions `json:"options"`
	Failpoints string     `json:"failpoints,omitempty"` // chaos-only; gated by Config.EnableFailpoints

	// Tenant is the submitting tenant, empty for the default tenant — kept
	// empty (not "default") so pre-tenant checkpoints and default-tenant
	// specs share one byte format.
	Tenant string `json:"tenant,omitempty"`
	// Batch ties this spec to a /v1/batch submission. Because the spec is
	// the checkpoint format AND the HA replication format, these two fields
	// are all a standby or restarted node needs to rebuild the batch: member
	// specs carry the batch ID, and BatchTotal says when the rebuilt batch
	// is whole (so an incremental resume never fires batch_done early).
	Batch      string `json:"batch,omitempty"`
	BatchTotal int    `json:"batch_total,omitempty"`
}

// JobStatus enumerates a job's lifecycle.
type JobStatus string

// Job states.
const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// ReportSummary is the serializable projection of core.Report returned with
// a finished job (wall-clock fields are deliberately excluded so identical
// inputs produce byte-identical job results).
type ReportSummary struct {
	Classes            int      `json:"classes"`
	PeriodBeforePS     int64    `json:"period_before_ps"`
	PeriodAfterPS      int64    `json:"period_after_ps"`
	RegsBefore         int      `json:"regs_before"`
	RegsAfter          int      `json:"regs_after"`
	StepsMoved         int64    `json:"steps_moved"`
	StepsPossible      int64    `json:"steps_possible"`
	Retries            int      `json:"retries"`
	JustifyEscalations int      `json:"justify_escalations,omitempty"`
	Degraded           []string `json:"degraded,omitempty"`
	// Attempts has one entry per pass through the §5.2 re-retiming loop.
	// Optional: results recorded before the field existed lack it.
	Attempts []AttemptSummary `json:"attempts,omitempty"`
}

// AttemptSummary is the serializable projection of core.Attempt.
type AttemptSummary struct {
	PeriodAfterPS    int64 `json:"period_after_ps"`
	JustifyLocal     int   `json:"justify_local"`
	JustifyGlobal    int   `json:"justify_global"`
	JustifyConflicts int   `json:"justify_conflicts"`
}

func summarize(rep *core.Report) *ReportSummary {
	var attempts []AttemptSummary
	for _, a := range rep.Attempts {
		attempts = append(attempts, AttemptSummary{
			PeriodAfterPS:    a.PeriodAfter,
			JustifyLocal:     a.JustifyLocal,
			JustifyGlobal:    a.JustifyGlobal,
			JustifyConflicts: a.JustifyConflicts,
		})
	}
	return &ReportSummary{
		Classes:            rep.NumClasses,
		PeriodBeforePS:     rep.PeriodBefore,
		PeriodAfterPS:      rep.PeriodAfter,
		RegsBefore:         rep.RegsBefore,
		RegsAfter:          rep.RegsAfter,
		StepsMoved:         rep.StepsMoved,
		StepsPossible:      rep.StepsPossible,
		Retries:            rep.Retries,
		JustifyEscalations: rep.JustifyEscalations,
		Degraded:           rep.Degraded,
		Attempts:           attempts,
	}
}

// Result is a successful job's payload: the retimed netlist for retime jobs,
// the Pareto front for explore jobs.
type Result struct {
	BLIF   string         `json:"blif,omitempty"`
	Report *ReportSummary `json:"report,omitempty"`
	Front  *explore.Front `json:"front,omitempty"`
}

// Progress is a running job's per-point completion state (explore jobs only).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Job is one unit of work tracked by the server. All fields are guarded by
// the job table's lock (table.go); done is closed exactly once when the job
// reaches a terminal state (checkpointed jobs never close it — they finish in
// the next process).
type Job struct {
	Spec     JobSpec
	Status   JobStatus
	Progress *Progress
	Result   *Result
	Err      *ErrorBody
	HTTP     int    // status for failed jobs
	Worker   string // cluster worker that produced the result, if forwarded
	// FromStore reports that the result was read from the result store
	// instead of solved (retime jobs only).
	FromStore bool

	QueuedAt   time.Time
	StartedAt  time.Time
	FinishedAt time.Time

	done chan struct{}
}

// jobView is the wire representation of a job. The lifecycle timestamps are
// wall-clock observability fields; result payloads deliberately carry no
// time, so identical inputs still produce byte-identical results.
type jobView struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind,omitempty"`
	Status     JobStatus `json:"status"`
	Tenant     string    `json:"tenant,omitempty"`
	Batch      string    `json:"batch,omitempty"`
	Worker     string    `json:"worker,omitempty"`
	FromStore  bool      `json:"from_store,omitempty"` // result read from the store; omitted when solved
	QueuedAt   string    `json:"queued_at,omitempty"`
	StartedAt  string    `json:"started_at,omitempty"`
	FinishedAt string    `json:"finished_at,omitempty"`
	// WaitMS is queue wait (start − enqueue) for jobs that started, in
	// milliseconds — the per-tenant latency signal the batch bench records.
	WaitMS   int64      `json:"wait_ms,omitempty"`
	Progress *Progress  `json:"progress,omitempty"`
	Result   *Result    `json:"result,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
}

// stamp renders a lifecycle timestamp, empty (and so omitted) when unset.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// checkpointJob writes one queued job spec to dir, atomically (temp file +
// rename), so a crash mid-checkpoint never leaves a half spec behind.
func checkpointJob(dir string, spec JobSpec) error {
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, spec.ID+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, spec.ID+".json"))
}

// removeFile deletes a checkpoint file.
func removeFile(dir, id string) error {
	return os.Remove(filepath.Join(dir, id+".json"))
}

// loadCheckpoints reads every checkpointed job spec in dir, in ID order, so
// a restarted server resumes the queue in its original submission order.
//
// A corrupt checkpoint (truncated write, bit rot, garbage planted by hand)
// must not take the healthy ones hostage: one bad file used to abort the
// whole resume, turning a single torn spec into N lost jobs. Instead each
// bad spec is skipped and reported through onBad (nil to ignore) — the server
// counts it in mcretimed_checkpoint_errors and logs the file — and every
// readable spec still resumes. The bad file is left on disk for a human to
// inspect; it is never deleted and never re-parsed successfully, so it is
// skipped again (and re-counted) on each restart until removed.
func loadCheckpoints(dir string, onBad func(name string, err error)) ([]JobSpec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	specs := make([]JobSpec, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if onBad != nil {
				onBad(name, err)
			}
			continue
		}
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			if onBad != nil {
				onBad(name, fmt.Errorf("checkpoint %s: %w", name, err))
			}
			continue
		}
		if spec.ID == "" {
			if onBad != nil {
				onBad(name, fmt.Errorf("checkpoint %s: valid JSON but no job id", name))
			}
			continue
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
