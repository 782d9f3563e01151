package service

import (
	"context"
	"encoding/json"
	"time"

	"bgsched/internal/experiments"
	"bgsched/internal/metrics"
	"bgsched/internal/telemetry"
)

// State is a run's lifecycle state.
type State string

// Run lifecycle: queued -> running -> done | failed | canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (st State) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// Run kinds.
const (
	kindSim    = "sim"
	kindFigure = "figure"
	kindBranch = "branch"
)

// FigureRequest is the POST /v1/figures/{fig} payload. Workers bounds
// the sweep engine's point parallelism for this request (clamped by
// the server); it is deliberately excluded from the cache hash because
// it changes execution speed, never the resulting tables.
type FigureRequest struct {
	Options experiments.Options
	Workers int
}

// figureConfig is the canonical config of a figure run (the hashed
// form plus the non-hashed execution knob).
type figureConfig struct {
	Figure  string              `json:"figure"`
	Options experiments.Options `json:"options"`
	workers int
}

// SimResult is the payload of a completed simulation run. Outcomes are
// deliberately summarised: per-job rows live in the event stream, not
// the cached record.
type SimResult struct {
	Summary       metrics.Summary     `json:"summary"`
	FailureEvents int                 `json:"failure_events"`
	JobKills      int                 `json:"job_kills"`
	Migrations    int                 `json:"migrations"`
	Checkpoints   int                 `json:"checkpoints"`
	Backfills     int                 `json:"backfills"`
	Telemetry     *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// FigureResult is the payload of a completed figure sweep.
type FigureResult struct {
	Figure string               `json:"figure"`
	Title  string               `json:"title"`
	Tables []*experiments.Table `json:"tables"`
}

// run is one tracked request. Mutable fields are guarded by Server.mu;
// the event buffer has its own lock; ctx/cancel/done are set once at
// creation.
type run struct {
	id     string
	kind   string
	hash   string
	cfg    any // experiments.RunConfig or figureConfig (canonical)
	events *eventBuffer
	// traces buffers the run's NDJSON causal trace (internal/trace)
	// exactly as events buffers the sim event log; nil on runs restored
	// from the state journal (traces are not persisted).
	traces *eventBuffer

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	state        State
	errMsg       string
	cancelReason string
	attempts     int
	submitted    time.Time
	started      time.Time
	finished     time.Time
	result       json.RawMessage
	// body is the full record rendered once at the terminal transition;
	// every later read (cache hits, GET, wait responses, the state
	// journal) serves these exact bytes, which is what makes cache hits
	// byte-identical.
	body []byte
	// waiters counts ?wait=1 clients attached to this run; ephemeral
	// marks a run created by a waiting client, whose disconnect cancels
	// the run if nobody else is waiting.
	waiters   int
	ephemeral bool
}

// RunView is the JSON rendering of a run record. Summary listings omit
// Config and Result.
type RunView struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	State      State           `json:"state"`
	ConfigHash string          `json:"config_hash"`
	Submitted  time.Time       `json:"submitted"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	DurationS  float64         `json:"duration_seconds,omitempty"`
	Attempts   int             `json:"attempts,omitempty"`
	Error      string          `json:"error,omitempty"`
	Events     int             `json:"events"`
	Dropped    int             `json:"events_dropped,omitempty"`
	Traces     int             `json:"trace_records,omitempty"`
	TraceDrops int             `json:"trace_records_dropped,omitempty"`
	Config     any             `json:"config,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// viewLocked renders a run. Caller holds s.mu.
func (s *Server) viewLocked(r *run, full bool) RunView {
	v := RunView{
		ID:         r.id,
		Kind:       r.kind,
		State:      r.state,
		ConfigHash: r.hash,
		Submitted:  r.submitted.UTC(),
		Attempts:   r.attempts,
		Error:      r.errMsg,
	}
	if !r.started.IsZero() {
		t := r.started.UTC()
		v.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished.UTC()
		v.Finished = &t
		if !r.started.IsZero() {
			v.DurationS = r.finished.Sub(r.started).Seconds()
		}
	}
	if r.events != nil {
		v.Events, v.Dropped = r.events.counts()
	}
	if r.traces != nil {
		v.Traces, v.TraceDrops = r.traces.counts()
	}
	if full {
		v.Config = r.cfg
		v.Result = r.result
	}
	return v
}
