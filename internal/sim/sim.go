// Package sim is the event-driven simulator of Section 6.1: it replays
// a job log against a failure trace on the simulated BG/L torus,
// invoking the configured scheduler at every arrival, completion and
// failure-induced restart, and produces the paper's timing and
// capacity metrics.
//
// Simulation semantics follow the paper:
//
//   - jobs scheduled for execution start immediately (no dispatch
//     latency);
//   - failures are transient: the node is instantly reusable, but the
//     job running on it loses all unsaved work and re-enters the queue
//     at its original FCFS position;
//   - without checkpointing (the paper's main configuration) "unsaved"
//     means everything: the job restarts from the beginning.
//
// Extensions beyond the paper's main runs, all off by default:
// per-failure node downtime, and checkpointing with periodic or
// prediction-triggered policies (Section 8 future work).
//
// Internally the simulator is a deterministic event kernel (kernel.go:
// the calendar heap and the clock) driven by Simulator.step, which
// dispatches each event by kind to the core lifecycle (arrival, start,
// finish) or to one mechanism, each in its own file: failures
// (failures.go), checkpointing (checkpoint.go), migration
// (migration.go) and network contention (contention.go).
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"bgsched/internal/checkpoint"
	"bgsched/internal/contention"
	"bgsched/internal/core"
	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/metrics"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
)

// downOwner marks nodes held unavailable during a configured downtime.
const downOwner int64 = -2

// Config assembles one simulation run.
type Config struct {
	Geometry  torus.Geometry
	Scheduler *core.Scheduler
	Jobs      []*job.Job
	Failures  failure.Trace

	// Downtime holds a failed node out of service for this many
	// seconds. The paper's model uses 0 (transient faults, instant
	// recovery); Section 7.1 discusses the consequences.
	Downtime float64

	// MigrationCost charges each migrated job this many seconds of
	// checkpoint-and-restart delay. The paper's model migrates for
	// free (0); a real BG/L migration checkpoints the job, moves it,
	// and restarts it.
	MigrationCost float64

	// Checkpoint enables the Section 8 checkpointing extension.
	Checkpoint *checkpoint.Config

	// Contention enables the network-contention model: co-resident jobs
	// whose partitions share torus lines dilate each other's runtime
	// (see internal/contention). Nil — the paper's model — charges
	// nothing.
	Contention *contention.Config

	// RecordTimeline samples machine state at every event into
	// Result.Timeline, for RenderTimeline and debugging.
	RecordTimeline bool

	// CheckInvariants validates machine-state conservation after every
	// event (see verifyInvariants in invariants.go): free-node count
	// consistent with the occupancy map, running partitions exclusively
	// owned and non-overlapping, whole-machine node conservation, and
	// starts = finishes + kills + running. A violation aborts the run
	// with an *InvariantError. Costs one occupancy scan per event;
	// intended for debugging and hardened sweeps, off by default.
	CheckInvariants bool

	// EventLog, when non-nil, receives one JSON object per simulation
	// state change (see LoggedEvent / ReadEventLog).
	EventLog io.Writer

	// Telemetry, when non-nil, receives the run's counters, gauges and
	// per-job distributions ("sim.*" instruments; see simMetrics). A
	// nil registry disables collection with no other behaviour change.
	Telemetry *telemetry.Registry

	// Trace, when non-nil, receives the run's causal lifecycle records:
	// per-job submit/allocate/start/checkpoint/kill/requeue/finish
	// chains plus machine-level failure and recovery events, linked by
	// cause (see internal/trace). Records carry simulated time only, so
	// traced bytes are deterministic for a fixed configuration.
	Trace *trace.Tracer

	// Flight, when non-nil, remembers the last kernel dispatches in a
	// bounded ring, dumped on invariant violations (and, via the global
	// registry, on contained panics or SIGQUIT) so a crash ships the
	// event history that led up to it.
	Flight *trace.FlightRecorder
}

// simMetrics holds the simulator's instruments, resolved once in New.
// With a nil registry every handle is nil and recording is a no-op.
type simMetrics struct {
	events      *telemetry.Counter // sim.events: simulation events processed
	arrivals    *telemetry.Counter // sim.arrivals
	starts      *telemetry.Counter // sim.starts: job (re)starts dispatched
	finishes    *telemetry.Counter // sim.finishes
	failures    *telemetry.Counter // sim.failures: failure events delivered
	kills       *telemetry.Counter // sim.kills: failures that killed a running job
	restarts    *telemetry.Counter // sim.restarts: killed jobs requeued for re-execution
	checkpoints *telemetry.Counter // sim.checkpoints
	migrations  *telemetry.Counter // sim.migrations
	backfills   *telemetry.Counter // sim.backfills: starts ahead of the queue head
	contentions *telemetry.Counter // sim.contention.charges: dilation charges applied

	freeNodes   *telemetry.Gauge // sim.free_nodes, sampled at every event
	queueDepth  *telemetry.Gauge // sim.queue_depth, sampled at every event
	runningJobs *telemetry.Gauge // sim.running_jobs, sampled at every event

	wait     *telemetry.Histogram // sim.job.wait_seconds (paper t_w, per finished job)
	response *telemetry.Histogram // sim.job.response_seconds (t_r)
	slowdown *telemetry.Histogram // sim.job.bounded_slowdown
	dilation *telemetry.Histogram // sim.job.dilation_seconds, per contention charge
}

func newSimMetrics(reg *telemetry.Registry) simMetrics {
	return simMetrics{
		events:      reg.Counter("sim.events"),
		arrivals:    reg.Counter("sim.arrivals"),
		starts:      reg.Counter("sim.starts"),
		finishes:    reg.Counter("sim.finishes"),
		failures:    reg.Counter("sim.failures"),
		kills:       reg.Counter("sim.kills"),
		restarts:    reg.Counter("sim.restarts"),
		checkpoints: reg.Counter("sim.checkpoints"),
		migrations:  reg.Counter("sim.migrations"),
		backfills:   reg.Counter("sim.backfills"),
		contentions: reg.Counter("sim.contention.charges"),
		freeNodes:   reg.Gauge("sim.free_nodes"),
		queueDepth:  reg.Gauge("sim.queue_depth"),
		runningJobs: reg.Gauge("sim.running_jobs"),
		wait:        reg.Histogram("sim.job.wait_seconds"),
		response:    reg.Histogram("sim.job.response_seconds"),
		slowdown:    reg.Histogram("sim.job.bounded_slowdown"),
		dilation:    reg.Histogram("sim.job.dilation_seconds"),
	}
}

// Result is the outcome of a run.
type Result struct {
	Outcomes []metrics.Outcome
	Summary  metrics.Summary

	FailureEvents int // failure events delivered within the run
	JobKills      int // failures that killed a running job
	Migrations    int // migration moves performed
	Checkpoints   int // checkpoints taken
	Backfills     int // jobs started ahead of the queue head

	// ContentionCharges counts the dilation charges the contention
	// model applied; DilationSeconds is the simulated time they added
	// across all affected runs. Both zero when the model is off.
	ContentionCharges int
	DilationSeconds   float64

	// Timeline holds machine-state samples when Config.RecordTimeline
	// is set; nil otherwise.
	Timeline []TimelinePoint

	// EventsDispatched is the total number of calendar events the kernel
	// dispatched over the run — the exclusive upper bound of the valid
	// snapshot seq range.
	EventsDispatched int64
}

// runState is the mutable execution state of one job.
type runState struct {
	job   *job.Job
	part  torus.Partition
	start float64
	epoch int
	// finishTime is the absolute completion time under the current
	// schedule (including checkpoint overheads incurred so far).
	finishTime float64
	// expFinish is the scheduler-visible estimated completion.
	expFinish float64
	// overheadSoFar is checkpoint overhead accumulated in this run.
	overheadSoFar float64
	// savedAtStart is the checkpointed work the run began with.
	savedAtStart float64
	// restartPenaltyPaid is the restore cost charged at this start.
	restartPenaltyPaid float64
}

// jobProgress is per-job state that survives restarts.
type jobProgress struct {
	firstStart float64
	started    bool
	restarts   int
	lostWork   float64
	savedWork  float64 // checkpointed work, seconds of computation
	lastStart  float64
	// nextEpoch issues globally unique epochs for this job's finish and
	// checkpoint events, across restarts and checkpoint reschedules.
	nextEpoch int
	// lastSeq is the trace sequence number of this job's most recent
	// lifecycle record, the Cause of its next one.
	lastSeq uint64
}

// Simulator holds the state of one run. Create with New, execute with
// Run; a Simulator is single-use.
type Simulator struct {
	cfg      Config
	k        kernel
	grid     *torus.Grid
	queue    *job.Queue
	running  map[job.ID]*runState
	progress map[job.ID]*jobProgress
	jobsByID map[job.ID]*job.Job
	elog     *eventLogger
	met      simMetrics
	tracker  metrics.CapacityTracker
	outcomes []metrics.Outcome
	result   Result
	pending  int // jobs not yet finished

	// dilation is the contention model's per-job dilation ledger,
	// round-tripped through snapshots; its aggregates accrue in
	// result.ContentionCharges and result.DilationSeconds.
	dilation map[job.ID]float64

	// started flips when the run's initial observation has been taken;
	// a simulator restored from a snapshot starts true, because the
	// prefix run already observed that instant.
	started bool

	// Conservation counters for the invariant guard: every start must
	// eventually be matched by a finish or a kill.
	nStarts   int
	nFinishes int
	nKills    int

	// Steady-state reuse: runFree recycles runState records between
	// runs (a finish or kill returns the record after its last read),
	// and runIDs/runBuf back the scheduler's running-list snapshot.
	// Together with the scheduler's own buffers this keeps the event
	// loop free of per-event heap allocations.
	runFree []*runState
	runIDs  []job.ID
	runBuf  []core.Running

	// lastFinishSeq is the trace sequence of the most recent finish
	// record — the cause of any migration moves it triggers.
	lastFinishSeq uint64
}

// validateConfig checks the constraints every simulator — fresh or
// restored — must satisfy.
func validateConfig(cfg Config) error {
	if cfg.Scheduler == nil {
		return fmt.Errorf("sim: Scheduler is required")
	}
	if len(cfg.Jobs) == 0 {
		return fmt.Errorf("sim: no jobs")
	}
	if cfg.Downtime < 0 {
		return fmt.Errorf("sim: negative downtime %g", cfg.Downtime)
	}
	if cfg.MigrationCost < 0 {
		return fmt.Errorf("sim: negative migration cost %g", cfg.MigrationCost)
	}
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.Validate(); err != nil {
			return err
		}
	}
	if err := cfg.Contention.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	n := cfg.Geometry.N()
	if n == 0 {
		return fmt.Errorf("sim: empty geometry")
	}
	seen := make(map[job.ID]bool, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		if err := j.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if j.AllocSize > n {
			return fmt.Errorf("sim: %v cannot fit on %d-node machine", j, n)
		}
		if seen[j.ID] {
			return fmt.Errorf("sim: duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
	}
	if err := cfg.Failures.Validate(n); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// newSimulator builds the simulator shell for a validated config: maps
// allocated, but the calendar empty and no state loaded. New loads the
// initial calendar; NewFromSnapshot restores a serialized one.
func newSimulator(cfg Config) *Simulator {
	s := &Simulator{
		cfg:      cfg,
		elog:     newEventLogger(cfg.EventLog),
		met:      newSimMetrics(cfg.Telemetry),
		grid:     torus.NewGrid(cfg.Geometry),
		queue:    job.NewQueue(),
		running:  make(map[job.ID]*runState),
		progress: make(map[job.ID]*jobProgress),
		pending:  len(cfg.Jobs),
	}
	s.jobsByID = make(map[job.ID]*job.Job, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		s.jobsByID[j.ID] = j
	}
	return s
}

// New validates the configuration and prepares a simulator with the
// initial calendar (arrivals, failure trace) loaded.
func New(cfg Config) (*Simulator, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	s := newSimulator(cfg)

	// Arrivals in time order, then failures: the sequence numbers make
	// simultaneous events deterministic.
	jobs := make([]*job.Job, len(cfg.Jobs))
	copy(jobs, cfg.Jobs)
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Arrival != jobs[k].Arrival {
			return jobs[i].Arrival < jobs[k].Arrival
		}
		return jobs[i].ID < jobs[k].ID
	})
	for _, j := range jobs {
		s.k.push(event{time: j.Arrival, kind: evArrival, jobID: j.ID})
		s.progress[j.ID] = &jobProgress{}
	}
	for _, f := range cfg.Failures {
		s.k.push(event{time: f.Time, kind: evFailure, node: f.Node})
	}
	return s, nil
}

// Run executes the simulation to completion and returns the result.
func (s *Simulator) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// cancelCheckStride is how many events RunContext processes between
// context polls. Event handling is microseconds; checking every event
// would put a mutexed ctx.Err() on the hot path for no responsiveness
// gain.
const cancelCheckStride = 256

// RunContext executes the simulation to completion, aborting with
// ctx.Err() if the context is cancelled mid-run. Cancellation is
// checked between events (every cancelCheckStride of them), so a
// cancelled run returns promptly and never leaves a handler half
// applied. RunContext also continues a simulator paused by RunToEvent
// or restored by NewFromSnapshot.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	if _, err := s.RunToEvent(ctx, -1); err != nil {
		return Result{}, err
	}
	return s.Finalize()
}

// EventsDispatched returns the number of calendar events dispatched so
// far (counting from the start of the run, across snapshot/restore).
func (s *Simulator) EventsDispatched() int64 { return s.k.dispatched }

// RunToEvent processes events until the kernel's dispatched count
// reaches upTo or the run completes, whichever comes first; upTo < 0
// means no limit. It returns done=true when every job has finished.
// A paused simulator (done=false, nil error) sits exactly on an event
// boundary: Snapshot captures it, and a further RunToEvent or
// RunContext call continues it.
func (s *Simulator) RunToEvent(ctx context.Context, upTo int64) (bool, error) {
	// The flight recorder joins the process-wide registry for the run's
	// duration, so SIGQUIT and contained-panic dumps cover it while
	// live; an invariant violation dumps it directly below.
	trace.RegisterFlight(s.cfg.Flight)
	defer trace.UnregisterFlight(s.cfg.Flight)
	span := s.cfg.Trace.Begin("sim", "run")
	defer span.End()
	// The per-event counter accumulates locally and publishes once per
	// RunToEvent call: a batched add on exit instead of an atomic op
	// per dispatched event. Readers of sim.events see the total when
	// the call returns (Finalize always follows the last one).
	ev := telemetry.NewBatch(s.met.events)
	defer ev.Flush()
	if !s.started {
		s.started = true
		if err := s.observe(); err != nil {
			return false, err
		}
	}
	for processed := 0; s.pending > 0; processed++ {
		if upTo >= 0 && s.k.dispatched >= upTo {
			return false, nil
		}
		if processed%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if s.k.pending() == 0 {
			return false, fmt.Errorf("sim: deadlock at t=%g: %d jobs unfinished, no events pending",
				s.k.now, s.pending)
		}
		ev.Inc()
		err := s.step()
		if err == nil && s.cfg.CheckInvariants {
			err = s.verifyInvariants()
		}
		if err != nil {
			var ie *InvariantError
			if errors.As(err, &ie) {
				_ = s.cfg.Flight.Dump("invariant violation: " + ie.Check)
			}
			return false, err
		}
	}
	return true, nil
}

// step takes the next event from the kernel and dispatches it by kind.
// The flight recorder sees the event before its handler runs, so a
// crashing handler has already had its triggering event recorded.
func (s *Simulator) step() error {
	e, err := s.k.next()
	if err != nil {
		return err
	}
	if s.cfg.Flight != nil {
		s.recordFlight(e)
	}
	switch e.kind {
	case evArrival:
		return s.handleArrival(e)
	case evFinish:
		return s.handleFinish(e)
	case evFailure:
		return s.handleFailure(e)
	case evNodeUp:
		return s.handleNodeUp(e)
	case evCheckpoint:
		return s.handleCheckpoint(e)
	case evCkptPoll:
		return s.handleCkptPoll(e)
	}
	return nil
}

// Finalize closes the capacity integral, flushes the output streams and
// computes the run summary. Call once, after RunToEvent reports done.
func (s *Simulator) Finalize() (Result, error) {
	unused, err := s.tracker.CloseAt(s.k.now)
	if err != nil {
		return Result{}, err
	}
	if err := s.elog.flushErr(); err != nil {
		return Result{}, err
	}
	if err := s.cfg.Trace.Err(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	summary, err := metrics.Summarize(s.outcomes, s.cfg.Geometry.N(), unused)
	if err != nil {
		return Result{}, err
	}
	s.result.Outcomes = s.outcomes
	s.result.Summary = summary
	s.result.EventsDispatched = s.k.dispatched
	return s.result, nil
}

// observe feeds the capacity tracker with the current (f, q) state and
// refreshes the machine-state gauges.
func (s *Simulator) observe() error {
	s.recordTimeline()
	s.met.freeNodes.Set(float64(s.grid.FreeCount()))
	s.met.queueDepth.Set(float64(s.queue.Len()))
	s.met.runningJobs.Set(float64(len(s.running)))
	return s.tracker.Observe(s.k.now, s.grid.FreeCount(), s.queue.DemandNodes())
}

func (s *Simulator) handleArrival(e event) error {
	j := s.jobsByID[e.jobID]
	if j == nil {
		return fmt.Errorf("sim: arrival for unknown job %d", e.jobID)
	}
	s.queue.Push(j)
	s.met.arrivals.Inc()
	s.logEvent("arrival", j.ID, 0, nil)
	if s.cfg.Trace != nil { // guard: the variadic fields allocate
		s.progress[j.ID].lastSeq = s.traceJob("submit", j.ID, 0,
			trace.Fint("size", int64(j.Size)))
	}
	if err := s.schedule(); err != nil {
		return err
	}
	return s.observe()
}

func (s *Simulator) handleFinish(e event) error {
	r, ok := s.running[e.jobID]
	if !ok || r.epoch != e.epoch {
		return nil // stale: the run was killed or rescheduled
	}
	if err := s.grid.Release(r.part, int64(e.jobID)); err != nil {
		return fmt.Errorf("sim: finish: %w", err)
	}
	delete(s.running, e.jobID)
	s.nFinishes++
	s.met.finishes.Inc()
	s.logEvent("finish", e.jobID, 0, &r.part)
	p := s.progress[e.jobID]
	wait := r.start - r.job.Arrival
	response := s.k.now - r.job.Arrival
	if s.cfg.Trace != nil {
		p.lastSeq = s.traceJob("finish", e.jobID, p.lastSeq,
			trace.Num("wait", wait), trace.Num("response", response),
			trace.Fint("restarts", int64(p.restarts)))
		s.lastFinishSeq = p.lastSeq
	}
	s.met.wait.Observe(wait)
	s.met.response.Observe(response)
	s.met.slowdown.Observe(metrics.BoundedSlowdown(response, r.job.Estimate))
	s.outcomes = append(s.outcomes, metrics.Outcome{
		ID:         e.jobID,
		Arrival:    r.job.Arrival,
		FirstStart: p.firstStart,
		LastStart:  r.start,
		Finish:     s.k.now,
		Estimate:   r.job.Estimate,
		Actual:     r.job.Actual,
		Size:       r.job.Size,
		AllocSize:  r.job.AllocSize,
		Restarts:   p.restarts,
		LostWork:   p.lostWork,
	})
	s.pending--
	s.runFree = append(s.runFree, r) // last read of r above

	// Compaction runs between the completed job's accounting and the
	// scheduler pass that refills the machine.
	if err := s.migrate(); err != nil {
		return err
	}
	if err := s.schedule(); err != nil {
		return err
	}
	return s.observe()
}

// schedule invokes the scheduler and starts the jobs it selects.
func (s *Simulator) schedule() error {
	decisions, err := s.cfg.Scheduler.Schedule(s.grid, s.queue, s.runningList(), s.k.now)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, d := range decisions {
		s.start(d)
	}
	// Count backfills: started jobs that left an older job waiting.
	if s.queue.Len() > 0 {
		oldest := s.queue.Peek()
		for _, d := range decisions {
			if d.Job.Arrival > oldest.Arrival ||
				(d.Job.Arrival == oldest.Arrival && d.Job.ID > oldest.ID) {
				s.result.Backfills++
				s.met.backfills.Inc()
			}
		}
	}
	return nil
}

// start activates one scheduling decision: the partition was already
// allocated by the scheduler.
func (s *Simulator) start(d core.Decision) {
	p := s.progress[d.Job.ID]
	penalty := s.restartPenalty(p)
	remainingActual := d.Job.Actual - p.savedWork
	if remainingActual < 0 {
		remainingActual = 0
	}
	remainingEst := d.Job.Estimate - p.savedWork
	if remainingEst < 1 {
		remainingEst = 1
	}
	epoch := p.nextEpoch
	p.nextEpoch++
	var r *runState
	if n := len(s.runFree); n > 0 {
		r = s.runFree[n-1]
		s.runFree = s.runFree[:n-1]
	} else {
		r = new(runState)
	}
	*r = runState{
		job:                d.Job,
		part:               d.Part,
		start:              s.k.now,
		epoch:              epoch,
		finishTime:         s.k.now + penalty + remainingActual,
		expFinish:          s.k.now + penalty + remainingEst,
		savedAtStart:       p.savedWork,
		restartPenaltyPaid: penalty,
	}
	s.running[d.Job.ID] = r
	if !p.started {
		p.started = true
		p.firstStart = s.k.now
	}
	p.lastStart = s.k.now
	s.nStarts++
	s.met.starts.Inc()
	s.logEvent("start", d.Job.ID, 0, &d.Part)
	if s.cfg.Trace != nil {
		p.lastSeq = s.traceJob("allocate", d.Job.ID, p.lastSeq,
			trace.F("partition", d.Part.String()))
		p.lastSeq = s.traceJob("start", d.Job.ID, p.lastSeq,
			trace.Num("wait", s.k.now-d.Job.Arrival), trace.Fint("epoch", int64(epoch)))
	}
	s.k.push(event{time: r.finishTime, kind: evFinish, jobID: d.Job.ID, epoch: r.epoch})
	// Contention dilates the new co-residency before the first
	// checkpoint is scheduled, so the checkpoint is placed against the
	// run's final (dilated) epoch and completion.
	s.contend(r)
	s.scheduleCheckpoint(r)
}

// runningList snapshots the running jobs for the scheduler, in
// deterministic job-id order.
func (s *Simulator) runningList() []core.Running {
	ids := s.runIDs[:0]
	for id := range s.running {
		ids = append(ids, id)
	}
	// Insertion sort: ids are unique, so the order matches any
	// comparison sort, without sort.Slice's per-call swapper
	// allocation; the running set is small (bounded by the machine).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	s.runIDs = ids
	out := s.runBuf[:0]
	for _, id := range ids {
		r := s.running[id]
		out = append(out, core.Running{Job: r.job, Part: r.part, Start: r.start, ExpFinish: r.expFinish})
	}
	s.runBuf = out
	return out
}
