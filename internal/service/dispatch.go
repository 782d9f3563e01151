package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"bgsched/internal/experiments"
	"bgsched/internal/resilience"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
	"bgsched/internal/trace"
)

// errQueueFull is returned by enqueue when the bounded queue is
// saturated; the handler maps it to 429 + Retry-After.
var errQueueFull = errors.New("service: run queue full")

// errDraining is returned by enqueue once the server drains; the
// handler maps it to 503.
var errDraining = errors.New("service: draining, not accepting runs")

// enqueue registers a new run and places it on the bounded queue
// without ever blocking: a full queue is backpressure, reported to the
// client, not absorbed into unbounded memory.
func (s *Server) enqueue(kind, hash string, cfg any, wait bool) (*run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	r := &run{
		kind:      kind,
		hash:      hash,
		cfg:       cfg,
		state:     StateQueued,
		submitted: time.Now(),
		events:    newEventBuffer(s.cfg.MaxEventBytes),
		traces:    newEventBuffer(s.cfg.MaxEventBytes),
		done:      make(chan struct{}),
	}
	r.ctx, r.cancel = context.WithCancel(s.baseCtx)
	select {
	case s.queue <- r:
	default:
		r.cancel()
		return nil, errQueueFull
	}
	r.id = s.nextRunIDLocked()
	if wait {
		r.waiters++
		r.ephemeral = true
	}
	s.runs[r.id] = r
	s.order = append(s.order, r)
	s.byHash[hash] = r
	s.enforceRetentionLocked()
	s.m.queueDepth.Add(1)
	s.m.runsSubmitted.Inc()
	return r, nil
}

// runOne executes one dequeued run with a deadline, panic containment
// and retries, then publishes the terminal record.
func (s *Server) runOne(r *run) {
	s.m.queueDepth.Add(-1)
	s.mu.Lock()
	if r.state != StateQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	r.state = StateRunning
	r.started = time.Now()
	s.m.queueWait.Observe(r.started.Sub(r.submitted).Seconds())
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(r.ctx, s.cfg.RunTimeout)
	defer cancel()

	exec := s.executeTask
	if s.execHook != nil {
		exec = s.execHook
	}
	var payload any
	var err error
	attempts := 0
	for {
		attempts++
		if attempts > 1 {
			r.events.reset() // a retry restarts the event stream
			r.traces.reset() // ... and the causal trace
		}
		err = resilience.Safe(func() error {
			// The chaos dispatch seam fails whole attempts, so injected
			// faults exercise the same retry machinery organic ones do.
			if s.cfg.Chaos != nil {
				if ferr := s.cfg.Chaos.Exec(); ferr != nil {
					return ferr
				}
			}
			var execErr error
			payload, execErr = exec(ctx, r)
			return execErr
		})
		if err == nil || resilience.Canceled(err) {
			break
		}
		if _, isPanic := resilience.IsPanic(err); isPanic {
			s.m.runPanics.Inc()
		}
		if attempts > s.cfg.Retries {
			break
		}
		s.m.runRetries.Inc()
	}
	s.finish(r, attempts, payload, err)
}

// executeTask runs the simulation or figure sweep for r, writing the
// event log into the run's byte log as it is produced. Both paths build
// their simulations through the staged run-builder (internal/build), so
// every request served by this process shares one artifact cache:
// repeated or near-identical submissions — the common shape of service
// traffic — reuse synthesized workloads and failure traces instead of
// regenerating them. (Distinct from the server's result cache, which
// dedups whole runs by config hash; the artifact cache accelerates runs
// that are merely similar.)
func (s *Server) executeTask(ctx context.Context, r *run) (any, error) {
	switch r.kind {
	case kindSim:
		cfg := r.cfg.(experiments.RunConfig)
		return s.simulate(r, cfg, func(cfg experiments.RunConfig) (sim.Result, error) {
			return experiments.RunContext(ctx, cfg)
		}, trace.F("workload", cfg.Workload), trace.F("scheduler", string(cfg.Scheduler)), trace.Fint("seed", cfg.Seed))
	case kindBranch:
		return s.executeBranch(ctx, r)
	case kindFigure:
		fc := r.cfg.(figureConfig)
		spec, err := experiments.SpecByID(fc.Figure)
		if err != nil {
			return nil, err
		}
		eng := &experiments.Engine{Ctx: ctx, Workers: fc.workers}
		tables, err := spec.Run(eng, fc.Options)
		if err != nil {
			return nil, err
		}
		return FigureResult{Figure: spec.ID, Title: spec.Title, Tables: tables}, nil
	}
	return nil, fmt.Errorf("service: unknown run kind %q", r.kind)
}

// simulate runs one simulation for r through exec with the run's
// outputs wired: a fresh telemetry registry, the event log and the
// causal trace written straight into the run's byte logs, the trace
// opened by a meta record naming the run, and a kernel flight recorder
// when configured. Wall spans are on, so the request's build stages
// show up alongside the simulated-time records; the flight recorder is
// registered around the run by the simulator, so GET /debug/flight
// sees exactly the in-flight runs.
func (s *Server) simulate(r *run, cfg experiments.RunConfig, exec func(experiments.RunConfig) (sim.Result, error), meta ...trace.Field) (SimResult, error) {
	reg := telemetry.New()
	cfg.Telemetry = reg
	cfg.EventLog = r.events
	cfg.Trace = trace.New(r.traces, trace.Options{WallSpans: true})
	cfg.Trace.Meta(append([]trace.Field{trace.F("run", r.id)}, meta...)...)
	if s.cfg.FlightEvents > 0 {
		cfg.Flight = trace.NewFlightRecorder(s.cfg.FlightEvents, nil, "run "+r.id)
	}
	res, err := exec(cfg)
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Summary:       res.Summary,
		FailureEvents: res.FailureEvents,
		JobKills:      res.JobKills,
		Migrations:    res.Migrations,
		Checkpoints:   res.Checkpoints,
		Backfills:     res.Backfills,
		Telemetry:     reg.Snapshot(),
	}, nil
}

// finish publishes r's terminal state: renders the immutable record
// body, updates the cache and metrics, journals successful runs, and
// releases everyone blocked on the run.
func (s *Server) finish(r *run, attempts int, payload any, err error) {
	s.mu.Lock()
	r.attempts = attempts
	r.finished = time.Now()
	switch {
	case err == nil:
		resultJSON, merr := json.Marshal(payload)
		if merr != nil {
			r.state = StateFailed
			r.errMsg = fmt.Sprintf("encode result: %v", merr)
			s.m.runsFailed.Inc()
			break
		}
		r.state = StateDone
		r.result = resultJSON
		s.m.runsCompleted.Inc()
		s.m.runDuration.Observe(r.finished.Sub(r.started).Seconds())
	case resilience.Canceled(err):
		r.state = StateCanceled
		r.errMsg = r.cancelReason
		if r.errMsg == "" {
			r.errMsg = err.Error()
		}
		s.m.runsCanceled.Inc()
	default:
		r.state = StateFailed
		r.errMsg = err.Error()
		s.m.runsFailed.Inc()
	}
	s.sealLocked(r)
	persist := r.state == StateDone
	body := r.body
	s.mu.Unlock()

	r.events.close()
	if r.traces != nil {
		r.traces.close()
	}
	// Journal before releasing waiters: a client that observed the run
	// complete (wait=1) must also observe the journal's health state —
	// otherwise a /readyz probe issued right after a successful waited
	// run can race ahead of the failure-streak reset below.
	if persist && s.journal != nil {
		// The journal keeps one string per event line.
		var events []string
		if stream, _, _, _ := r.events.wait(context.Background(), 0); len(stream) > 0 {
			events = strings.Split(strings.TrimSuffix(string(stream), "\n"), "\n")
		}
		if jerr := s.journal.append(persistedRun{Body: body, Events: events}); jerr != nil {
			// Failures are counted and tracked as a consecutive streak:
			// /readyz flips to degraded at journalDegradedAfter, because a
			// persistently failing journal silently forfeits restart
			// durability.
			s.m.journalErrors.Inc()
			s.journalFails.Add(1)
			s.logError("state journal append failed", "run", r.id, "err", jerr)
		} else {
			s.journalFails.Store(0)
		}
	}
	close(r.done)
}

// sealLocked renders the terminal record body and removes the run from
// the in-flight coalescing index. Caller holds s.mu.
func (s *Server) sealLocked(r *run) {
	body, err := json.Marshal(s.viewLocked(r, true))
	if err != nil {
		// The view is plain data; this cannot realistically fail, but a
		// record must exist for the terminal state regardless.
		body = []byte(fmt.Sprintf(`{"id":%q,"state":%q,"error":"encode record failed"}`, r.id, r.state))
	}
	r.body = body
	if s.byHash[r.hash] == r {
		delete(s.byHash, r.hash)
	}
	if r.state == StateDone {
		if evicted := s.cache.Add(r.hash, r); evicted > 0 {
			s.m.cacheEvictions.Add(int64(evicted))
		}
	}
}

// cancelRun requests cancellation: a queued run transitions to
// canceled immediately (the worker will skip it); a running run has
// its context cancelled and the executor publishes the terminal state.
// Returns false if the run was already terminal.
func (s *Server) cancelRun(r *run, reason string) bool {
	s.mu.Lock()
	switch r.state {
	case StateQueued:
		r.state = StateCanceled
		r.cancelReason = reason
		r.errMsg = reason
		r.finished = time.Now()
		s.m.runsCanceled.Inc()
		s.sealLocked(r)
		s.mu.Unlock()
		r.cancel()
		r.events.close()
		if r.traces != nil {
			r.traces.close()
		}
		close(r.done)
		return true
	case StateRunning:
		r.cancelReason = reason
		s.mu.Unlock()
		r.cancel()
		return true
	}
	s.mu.Unlock()
	return false
}

// logError emits an operational (non-access) log line when logging is
// configured.
func (s *Server) logError(msg string, args ...any) {
	if s.accessLg != nil {
		s.accessLg.Error(msg, args...)
	}
}
