// Package service turns the experiment stack into a long-running
// scheduling-simulation daemon: a stdlib-only JSON-over-HTTP API that
// accepts simulation and paper-figure sweep requests, executes them on
// a bounded asynchronous queue with panic containment, retries,
// deadlines and cancellation, and serves completed results from an LRU
// cache keyed by the canonical config hash.
//
// Because experiments.Run is deterministic (same canonical RunConfig
// and seed produce identical results), the cache is exact: a repeated
// identical POST /v1/runs returns the byte-identical stored body
// without re-simulating.
//
// Surface:
//
//	POST /v1/runs            submit a RunConfig; ?wait=1 blocks until done
//	GET  /v1/runs            list runs (?state= filters)
//	GET  /v1/runs/{id}       one run record (full body once terminal)
//	DELETE /v1/runs/{id}     cancel a queued or running run
//	GET  /v1/runs/{id}/events  live NDJSON stream of the sim event log
//	GET  /v1/runs/{id}/trace   live NDJSON stream of the causal trace
//	POST /v1/figures/{fig}   submit a paper-figure sweep (fig3..fig10, ...)
//	GET  /debug/flight       dump of in-flight kernel flight recorders
//	GET  /healthz, /readyz, /metrics, /debug/pprof (opt-in)
//
// Operational behaviour: a saturated queue answers 429 with
// Retry-After, an over-limit request load answers 429 immediately,
// draining (SIGTERM) finishes in-flight runs and answers 503 to new
// submissions, and completed runs are journalled so a restarted server
// comes back with a warm cache.
package service

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bgsched/internal/chaos"
	"bgsched/internal/lru"
	"bgsched/internal/snapshot"
	"bgsched/internal/telemetry"
	"bgsched/internal/trace"
)

// FaultInjector is the seam contract the server consults for injected
// faults: one decision per HTTP request, per run-execution attempt, per
// result-cache hit and per state-journal append. Implemented by
// *chaos.Injector; a nil field disables injection entirely.
type FaultInjector interface {
	// Request decides the fault treatment of one HTTP request
	// (operational probes are never consulted).
	Request() chaos.RequestFault
	// Exec decides whether one run-execution attempt fails.
	Exec() error
	// CacheDrop decides whether a result-cache hit is dropped, forcing
	// a deterministic re-execution.
	CacheDrop() bool
	// Journal decides whether one state-journal append fails.
	Journal() error
}

// Config tunes one Server. The zero value is usable: every field has a
// default chosen for tests and small deployments.
type Config struct {
	// Workers is the number of concurrent run executors (default 2).
	Workers int
	// QueueDepth bounds the async run queue; a full queue rejects
	// submissions with 429 + Retry-After (default 16).
	QueueDepth int
	// CacheSize bounds the completed-run LRU cache (default 128).
	CacheSize int
	// RunTimeout is the per-run execution deadline, spanning retries
	// (default 10m).
	RunTimeout time.Duration
	// Retries is how many extra attempts a failed or panicking run gets
	// before it is recorded as failed (0 means the default of 1; a
	// negative value disables retries).
	Retries int
	// MaxJobs caps RunConfig.JobCount / Options.JobCount per request,
	// bounding the work one submission can demand (default 20000).
	MaxJobs int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently served API requests; excess
	// requests get an immediate 429. Health, readiness and metrics
	// endpoints are exempt (default 64).
	MaxInFlight int
	// MaxRuns bounds the in-memory run registry; the oldest terminal
	// runs are evicted first (default 512).
	MaxRuns int
	// MaxEventBytes bounds the line bytes (newlines excluded) each run
	// retains of its event log and, separately, of its causal trace;
	// a record past it is dropped, and dropped events are counted
	// (default 8 MiB).
	MaxEventBytes int
	// StatePath, when non-empty, appends every completed run to a JSONL
	// state journal and reloads it on startup, so results and the cache
	// survive a restart.
	StatePath string
	// EnablePprof mounts /debug/pprof.
	EnablePprof bool
	// AccessLog, when non-nil, receives one structured (JSON) log line
	// per request.
	AccessLog io.Writer
	// Telemetry is the service metrics registry; nil creates one.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives one span per served HTTP request
	// (category "http", named method+path, carrying the request ID).
	// Request spans are wall-clock records, so the tracer must be built
	// with trace.Options{WallSpans: true} to see them.
	Trace *trace.Tracer
	// FlightEvents sizes the per-run kernel flight recorder ring wired
	// into every simulation run (default 256); negative disables the
	// recorder. Recorders of in-flight runs are registered globally and
	// show up on GET /debug/flight and SIGQUIT dumps.
	FlightEvents int
	// Chaos, when non-nil, is consulted at the middleware, dispatch,
	// cache and journal seams for deterministic fault injection
	// (internal/chaos). Operational probes (/healthz, /readyz,
	// /metrics, /debug/*) are exempt so health stays an honest signal
	// during a soak. Nil disables injection.
	Chaos FaultInjector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 10 * time.Minute
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 20000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 512
	}
	if c.MaxEventBytes <= 0 {
		c.MaxEventBytes = 8 << 20
	}
	if c.FlightEvents == 0 {
		c.FlightEvents = 256
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New()
	}
	return c
}

// serviceMetrics holds the resolved service instruments (handles, per
// the telemetry package's design).
type serviceMetrics struct {
	httpRequests    *telemetry.Counter
	httpErrors      *telemetry.Counter
	httpPanics      *telemetry.Counter
	limiterRejected *telemetry.Counter
	chaosInjected   *telemetry.Counter

	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheEvictions *telemetry.Counter

	queueDepth    *telemetry.Gauge
	queueRejected *telemetry.Counter
	queueWait     *telemetry.Histogram

	runsSubmitted *telemetry.Counter
	runsCompleted *telemetry.Counter
	runsFailed    *telemetry.Counter
	runsCanceled  *telemetry.Counter
	runsCoalesced *telemetry.Counter
	runRetries    *telemetry.Counter
	runPanics     *telemetry.Counter
	runDuration   *telemetry.Histogram

	branchSnapshotHits   *telemetry.Counter
	branchSnapshotMisses *telemetry.Counter

	journalErrors      *telemetry.Counter
	journalRestoreSkip *telemetry.Counter

	streamsActive *telemetry.Gauge
}

func newServiceMetrics(reg *telemetry.Registry) serviceMetrics {
	return serviceMetrics{
		httpRequests:         reg.Counter("service.http.requests"),
		httpErrors:           reg.Counter("service.http.errors"),
		httpPanics:           reg.Counter("service.http.panics"),
		limiterRejected:      reg.Counter("service.http.limiter_rejected"),
		chaosInjected:        reg.Counter("service.chaos.requests_faulted"),
		cacheHits:            reg.Counter("service.cache.hits"),
		cacheMisses:          reg.Counter("service.cache.misses"),
		cacheEvictions:       reg.Counter("service.cache.evictions"),
		queueDepth:           reg.Gauge("service.queue.depth"),
		queueRejected:        reg.Counter("service.queue.rejected"),
		queueWait:            reg.Histogram("service.queue.wait_seconds"),
		runsSubmitted:        reg.Counter("service.runs.submitted"),
		runsCompleted:        reg.Counter("service.runs.completed"),
		runsFailed:           reg.Counter("service.runs.failed"),
		runsCanceled:         reg.Counter("service.runs.canceled"),
		runsCoalesced:        reg.Counter("service.runs.coalesced"),
		runRetries:           reg.Counter("service.runs.retries"),
		runPanics:            reg.Counter("service.runs.panics"),
		runDuration:          reg.Histogram("service.run.duration_seconds"),
		branchSnapshotHits:   reg.Counter("service.branch.snapshot_hits"),
		branchSnapshotMisses: reg.Counter("service.branch.snapshot_misses"),
		journalErrors:        reg.Counter("service.journal_errors"),
		journalRestoreSkip:   reg.Counter("service.journal_restore_skipped"),
		streamsActive:        reg.Gauge("service.streams.active"),
	}
}

// Server is the scheduling-simulation service. Create with New, mount
// via Handler, stop with Close.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	m   serviceMetrics

	handler  http.Handler
	accessLg *slog.Logger
	inflight chan struct{}
	reqSeq   atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue     chan *run
	workersWG sync.WaitGroup
	closeOnce sync.Once

	// execHook, when non-nil, replaces executeTask — a deterministic
	// seam for tests that need runs to block or fail on command. Set
	// before the first submission.
	execHook func(ctx context.Context, r *run) (any, error)

	journal *stateJournal
	// journalFails counts consecutive journal-append failures; at
	// journalDegradedAfter the /readyz probe reports degraded, because a
	// persistently failing journal means completed work will not survive
	// the next restart. Any successful append resets it.
	journalFails atomic.Int64

	mu       sync.Mutex
	draining bool
	runs     map[string]*run
	order    []*run          // submission order, for listing + retention
	byHash   map[string]*run // queued/running runs, for request coalescing
	// cache maps canonical config hashes to completed runs; s.mu also
	// covers the run-state reads done while serving a hit.
	cache *lru.Cache[string, *run]
	// snapshots maps "parentHash@atSeq" to the parent-prefix snapshot
	// of a branch replay, so sibling branches off one point share the
	// prefix execution. States are immutable once cached
	// (sim.NewFromSnapshot never mutates its input), so one entry can
	// feed any number of concurrent branch runs. Hit/miss shows only in
	// the service counters, never in result payloads: a chaos
	// cache-drop replay must stay byte-identical.
	snapshots *lru.Cache[string, *snapshot.State]
	idSeq     int64
}

// New builds a Server, reloading the state journal when configured,
// and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Telemetry,
		m:        newServiceMetrics(cfg.Telemetry),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		queue:    make(chan *run, cfg.QueueDepth),
		runs:     make(map[string]*run),
		byHash:   make(map[string]*run),
		cache:    lru.New[string, *run](cfg.CacheSize),

		snapshots: lru.New[string, *snapshot.State](maxBranchSnapshots),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.AccessLog != nil {
		s.accessLg = slog.New(slog.NewJSONHandler(cfg.AccessLog, nil))
	}
	if cfg.StatePath != "" {
		jnl, restored, report, err := openStateJournal(cfg.StatePath)
		if err != nil {
			return nil, err
		}
		s.journal = jnl
		if cfg.Chaos != nil {
			s.journal.fault = cfg.Chaos.Journal
		}
		if skipped := report.malformed + report.badCRC; skipped > 0 {
			s.m.journalRestoreSkip.Add(int64(skipped))
			s.logError("state journal restore skipped records",
				"malformed", report.malformed, "bad_crc", report.badCRC, "restored", len(restored))
		}
		s.restore(restored)
	}
	s.handler = s.buildHandler()
	for w := 0; w < cfg.Workers; w++ {
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			for r := range s.queue {
				s.runOne(r)
			}
		}()
	}
	return s, nil
}

// Handler returns the service's HTTP handler (mountable under
// httptest.Server or http.Server alike).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the service metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// BeginDrain flips the server into draining mode: /readyz turns 503
// and new submissions are refused, while queued and in-flight runs
// keep executing. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close drains the service: no new submissions are accepted, queued
// and in-flight runs finish, then the workers exit and the state
// journal is closed. If ctx expires first, every remaining run is
// cancelled and Close waits for the workers to observe it. The HTTP
// listener is owned by the caller (shut it down first or concurrently).
func (s *Server) Close(ctx context.Context) error {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		// Submissions check draining and enqueue under s.mu, so after
		// BeginDrain no further send can race this close.
		s.mu.Lock()
		close(s.queue)
		s.mu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel() // hard-cancel every remaining run
		<-done
		err = ctx.Err()
	}
	s.baseCancel()
	if s.journal != nil {
		if cerr := s.journal.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// nextRunID mints a registry-unique run id. Caller holds s.mu.
func (s *Server) nextRunIDLocked() string {
	s.idSeq++
	return fmt.Sprintf("r-%06d", s.idSeq)
}
