package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// BackfillMode selects how the scheduler fills around a blocked queue
// head.
type BackfillMode int

const (
	// BackfillNone: strict FCFS; nothing runs ahead of the head.
	BackfillNone BackfillMode = iota
	// BackfillAggressive: any queued job that fits starts immediately,
	// with no reservation protecting the head (can delay it).
	BackfillAggressive
	// BackfillEASY: the head receives a reservation (time and
	// partition) computed from the estimated completions of running
	// jobs; a later job may start only if it will finish before the
	// reservation time or does not intersect the reserved partition.
	BackfillEASY
)

// String implements fmt.Stringer.
func (m BackfillMode) String() string {
	switch m {
	case BackfillNone:
		return "none"
	case BackfillAggressive:
		return "aggressive"
	case BackfillEASY:
		return "easy"
	}
	return fmt.Sprintf("BackfillMode(%d)", int(m))
}

// Config assembles a scheduler.
type Config struct {
	Policy   Policy
	Finder   partition.Finder // nil defaults to the shape finder
	Backfill BackfillMode
	// Migration enables the compaction pass (Krevat's migration):
	// after releases, running jobs may be moved to defragment the
	// torus. The paper's model migrates without cost.
	Migration bool
	// Telemetry, when non-nil, receives per-decision instrumentation
	// ("sched.*" instruments; see NewScheduler). A nil registry
	// disables collection with no other behaviour change.
	Telemetry *telemetry.Registry
}

// schedMetrics holds the scheduler's instruments, resolved once at
// construction. With a nil registry every field is a nil handle and
// all recording is a no-op.
type schedMetrics struct {
	decision          *telemetry.Timer     // sched.decision.seconds: one Schedule call
	startsFCFS        *telemetry.Counter   // sched.starts.fcfs
	startsBackfill    *telemetry.Counter   // sched.starts.backfill
	backfillAttempts  *telemetry.Counter   // sched.backfill.attempts
	backfillSuccesses *telemetry.Counter   // sched.backfill.successes
	reservations      *telemetry.Counter   // sched.reservations.computed: drained afresh
	reservationsReuse *telemetry.Counter   // sched.reservations.reused: answered by the reservation memo
	reservationDrain  *telemetry.Histogram // sched.reservations.drain_depth: releases simulated until the head fits
}

func newSchedMetrics(reg *telemetry.Registry) schedMetrics {
	return schedMetrics{
		decision:          reg.Timer("sched.decision.seconds"),
		startsFCFS:        reg.Counter("sched.starts.fcfs"),
		startsBackfill:    reg.Counter("sched.starts.backfill"),
		backfillAttempts:  reg.Counter("sched.backfill.attempts"),
		backfillSuccesses: reg.Counter("sched.backfill.successes"),
		reservations:      reg.Counter("sched.reservations.computed"),
		reservationsReuse: reg.Counter("sched.reservations.reused"),
		reservationDrain:  reg.Histogram("sched.reservations.drain_depth"),
	}
}

// Running describes a job currently executing, as the scheduler sees
// it. ExpFinish is the simulator's estimate of when its partition
// frees (start + estimated execution time).
type Running struct {
	Job       *job.Job
	Part      torus.Partition
	Start     float64
	ExpFinish float64
}

// Decision is one job start issued by Schedule. The partition has
// already been allocated on the grid when the decision is returned.
type Decision struct {
	Job  *job.Job
	Part torus.Partition
}

// Scheduler implements the paper's FCFS space-sharing scheduler: at
// every scheduling point it starts the queue head whenever any
// partition of the job's size is free, placing it according to the
// configured policy, and then backfills per the configured mode.
//
// The scheduler owns every buffer its decision loop needs — candidate
// lists, the placement context, the EASY reservation's running-set and
// scratch grid, the returned decision slice — plus three memos that
// hold exact facts: the MFP memo keyed on the exact occupancy, the
// no-fit memo and the last reservation. A steady-state Schedule call
// performs no heap allocations. Neither the reuse nor the memos show in
// behaviour: every call decides exactly what a fresh scheduler would.
// A Scheduler is consequently not safe for concurrent use (it never
// was; the simulator's event loop is single-threaded).
type Scheduler struct {
	cfg Config
	met schedMetrics

	mfp       *partition.MFPCache
	ctx       PlacementContext   // reused placement context
	cands     []torus.Partition  // candidate buffer for tryStart/tryBackfill
	resCands  []torus.Partition  // the reservation's candidates, kept until its partition is chosen
	started   []Decision         // returned by Schedule; valid until the next call
	resRun    []Running          // running ∪ fresh starts, for the reservation
	scratch   *torus.Grid        // reservation scratch, left drained to where the head fits
	sorter    runningByExpFinish // reusable sort.Interface for the drain order
	res       reservationMemo    // the last reservation and its inputs
	noFit     []uint8            // per-size no-fit memo, indexed by size
	noFitGeom torus.Geometry     // geometry of the grid the no-fit memo describes
	left      []uint64           // occupancy the previous Schedule call left
}

// No-fit memo bits. Within one Schedule call the live grid only gains
// occupancy (policy probes restore it; the reservation drains a
// separate scratch grid), so the set of free partitions of any size
// only shrinks. A size that had no free partition has none at any
// later state with more occupancy, and a size whose every free
// partition overlapped the head's reservation stays that way, so later
// jobs of that size skip the finder with the answer it would give. The
// memo therefore survives from one call to the next while the grid
// starts the call in the state the previous call left, and is cleared
// otherwise; allReserved bits are also cleared whenever the
// reservation is recomputed. The memo is indexed by size and checked
// against the exact occupancy bitset, so it cannot collide.
const (
	noFreePart  uint8 = 1 << iota // no free partition of this size
	allReserved                   // every free partition of this size overlaps the reservation
)

// syncNoFit keeps the no-fit memo when gr is in the state the previous
// Schedule call left, and clears it otherwise.
func (s *Scheduler) syncNoFit(gr *torus.Grid) {
	if g := gr.Geometry(); g != s.noFitGeom {
		s.noFit = make([]uint8, g.N()+1)
		s.noFitGeom = g
	} else if !slices.Equal(s.left, gr.Occupancy()) {
		clear(s.noFit)
	}
}

// knownNoFit reports whether the memo holds one of the facts in mask
// about partitions of size.
func (s *Scheduler) knownNoFit(size int, mask uint8) bool {
	return size > 0 && size < len(s.noFit) && s.noFit[size]&mask != 0
}

// rememberNoFit records fact for size.
func (s *Scheduler) rememberNoFit(size int, fact uint8) {
	if size > 0 && size < len(s.noFit) {
		s.noFit[size] |= fact
	}
}

// runningByExpFinish sorts a Running slice by expected finish time.
// Using sort.Sort on a pointer receiver (instead of sort.Slice, whose
// reflect-based swapper allocates per call) keeps reservations
// allocation-free; both entry points run the same pdqsort, so the
// permutation — including the treatment of equal keys — is unchanged.
type runningByExpFinish struct{ rs []Running }

func (s *runningByExpFinish) Len() int           { return len(s.rs) }
func (s *runningByExpFinish) Less(i, j int) bool { return s.rs[i].ExpFinish < s.rs[j].ExpFinish }
func (s *runningByExpFinish) Swap(i, j int)      { s.rs[i], s.rs[j] = s.rs[j], s.rs[i] }

// NewScheduler validates the configuration and returns a scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: Config.Policy is required")
	}
	if cfg.Finder == nil {
		cfg.Finder = partition.Instrumented(partition.ShapeFinder{}, cfg.Telemetry)
	}
	switch cfg.Backfill {
	case BackfillNone, BackfillAggressive, BackfillEASY:
	default:
		return nil, fmt.Errorf("core: unknown backfill mode %d", int(cfg.Backfill))
	}
	mfp := partition.NewMFPCache()
	mfp.Sweeps = cfg.Telemetry.Counter("sched.mfp.sweeps") // MaxFree and plate sweeps
	return &Scheduler{
		cfg: cfg,
		met: newSchedMetrics(cfg.Telemetry),
		mfp: mfp,
	}, nil
}

// freeOfSize queries the finder into buf when it supports buffered
// queries, falling back to the allocating interface otherwise. The
// returned slice must be treated as owned by the caller of freeOfSize
// either way (buffered finders fill buf; plain finders hand out fresh
// slices).
func (s *Scheduler) freeOfSize(gr *torus.Grid, size int, buf *[]torus.Partition) []torus.Partition {
	if bf, ok := s.cfg.Finder.(partition.BufferedFinder); ok {
		*buf = bf.FreeOfSizeInto(gr, size, (*buf)[:0])
		return *buf
	}
	return s.cfg.Finder.FreeOfSize(gr, size)
}

// placementCtx primes the reused placement context for one decision,
// preserving the policy scratch buffers across calls.
func (s *Scheduler) placementCtx(gr *torus.Grid, j *job.Job, now float64) *PlacementContext {
	part, mfp := s.mfp.MaxFree(gr)
	s.ctx.Grid = gr
	s.ctx.Job = j
	s.ctx.Now = now
	s.ctx.MFPBefore = mfp
	s.ctx.MFPPart = part
	s.ctx.MFP = s.mfp
	return &s.ctx
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Schedule starts as many queued jobs as the policy and backfill mode
// allow at time now. It allocates partitions on gr, removes started
// jobs from q, and returns the start decisions in order. running lists
// the currently executing jobs (used by EASY reservations). The
// returned slice is owned by the scheduler and valid until the next
// Schedule call; callers that keep decisions across calls must copy.
func (s *Scheduler) Schedule(gr *torus.Grid, q *job.Queue, running []Running, now float64) ([]Decision, error) {
	sw := s.met.decision.Start()
	defer sw.Stop()
	s.started = s.started[:0]
	s.syncNoFit(gr)
	err := s.schedule(gr, q, running, now)
	// The live grid only gained occupancy, so every no-fit fact holds
	// at the state the call leaves. After an error, trust no memo.
	s.left = append(s.left[:0], gr.Occupancy()...)
	if err != nil {
		s.left = s.left[:0]
		s.res.valid = false
	}
	return s.started, err
}

// schedule is one Schedule call's decision loop, appending to
// s.started.
func (s *Scheduler) schedule(gr *torus.Grid, q *job.Queue, running []Running, now float64) error {
	// Phase 1: strict FCFS from the head.
	for q.Len() > 0 {
		head := q.Peek()
		d, ok, err := s.tryStart(gr, head, now)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		q.RemoveAt(0)
		s.started = append(s.started, d)
		s.met.startsFCFS.Inc()
	}
	if q.Len() == 0 || s.cfg.Backfill == BackfillNone {
		return nil
	}

	// Phase 2: backfill around the blocked head, walking the rest of
	// the queue in FCFS order. Aggressive backfill starts anything that
	// fits; EASY first reserves the head's start.
	try := (*Scheduler).tryStart
	if s.cfg.Backfill == BackfillEASY {
		// The reservation must see the machine as it will be: running
		// jobs plus this call's fresh starts, gathered into a reused
		// buffer.
		s.resRun = append(s.resRun[:0], running...)
		for _, d := range s.started {
			s.resRun = append(s.resRun, Running{Job: d.Job, Part: d.Part, Start: now, ExpFinish: now + d.Job.Estimate})
		}
		if err := s.reserve(gr, q.Peek(), s.resRun, now); err != nil {
			return err
		}
		try = (*Scheduler).tryBackfill
	}
	// A job larger than the free node count has no free partition, so
	// it is passed over without a try.
	visits := 0
	defer func() { s.met.backfillAttempts.Add(int64(visits)) }()
	for i := 1; i < q.Len(); {
		j := q.At(i)
		visits++
		if j.AllocSize > gr.FreeCount() {
			i++
			continue
		}
		d, ok, err := try(s, gr, j, now)
		if err != nil {
			return err
		}
		if !ok {
			i++
			continue
		}
		q.RemoveAt(i)
		s.started = append(s.started, d)
		s.met.backfillSuccesses.Inc()
		s.met.startsBackfill.Inc()
	}
	return nil
}

// preferPlacement gives a placement-searching finder (partition.Placer,
// e.g. the annealing finder) its say: the candidate it picks is swapped
// to the front of the slice. Every policy tie-breaks toward the first
// candidate, so this changes the decision only among policy-equal
// candidates — the legal set is exactly what the finder returned.
// Finders hand out fresh slices, so the in-place swap is safe.
func (s *Scheduler) preferPlacement(gr *torus.Grid, cands []torus.Partition) {
	pl, ok := s.cfg.Finder.(partition.Placer)
	if !ok || len(cands) < 2 {
		return
	}
	if k := pl.Place(gr, cands); k > 0 && k < len(cands) {
		cands[0], cands[k] = cands[k], cands[0]
	}
}

// tryStart attempts to place j now; on success the partition is
// allocated and the decision returned.
func (s *Scheduler) tryStart(gr *torus.Grid, j *job.Job, now float64) (Decision, bool, error) {
	if s.knownNoFit(j.AllocSize, noFreePart) {
		return Decision{}, false, nil
	}
	cands := s.freeOfSize(gr, j.AllocSize, &s.cands)
	if len(cands) == 0 {
		s.rememberNoFit(j.AllocSize, noFreePart)
		return Decision{}, false, nil
	}
	s.preferPlacement(gr, cands)
	ctx := s.placementCtx(gr, j, now)
	idx, err := s.cfg.Policy.Choose(ctx, cands)
	if err != nil {
		return Decision{}, false, fmt.Errorf("core: policy %s: %w", s.cfg.Policy.Name(), err)
	}
	if idx < 0 {
		return Decision{}, false, nil
	}
	if idx >= len(cands) {
		return Decision{}, false, fmt.Errorf("core: policy %s chose index %d of %d candidates",
			s.cfg.Policy.Name(), idx, len(cands))
	}
	p := cands[idx]
	if err := gr.Allocate(p, int64(j.ID)); err != nil {
		return Decision{}, false, fmt.Errorf("core: start %v: %w", j, err)
	}
	return Decision{Job: j, Part: p}, true, nil
}

// reservationMemo is the EASY guarantee for the queue head — it will
// start no later than time, on partition part — together with exactly
// the inputs it was computed from, so a later call with the same inputs
// reuses it.
//
// The time comes from the drain loop alone, which needs only the
// finder. The partition is the policy's choice among the drain step's
// candidates (Scheduler.resCands) on the scratch grid, which stays
// drained to that step; it is chosen only when a backfill job that must
// keep off it has free candidates (reservedPart), since every other job
// ignores it.
type reservationMemo struct {
	valid bool
	// The inputs: the geometry and live occupancy, the head (jobs are
	// never edited while queued), the running list as passed (before
	// the drain sort reorders it) and now.
	geom    torus.Geometry
	occ     []uint64
	head    *job.Job
	running []Running
	now     float64

	time float64
	// ok distinguishes a real reservation from the degenerate case
	// where none could be computed (then only finish-before-time
	// backfills with time = +Inf are allowed, i.e. everything).
	ok     bool
	part   torus.Partition
	chosen bool // part holds the policy's choice
}

// reusable reports whether the memo answers for these inputs. The
// drain order and every step that failed depend on the state alone; the
// time now enters only through the check time max(ExpFinish, now) of
// the step that fit. That time cannot have moved if now is unchanged,
// or if it was later than the memo's now (so it was that step's
// ExpFinish) and is not earlier than the current now. The degenerate
// reservation's time, +Inf, passes the second test at every finite now.
func (m *reservationMemo) reusable(gr *torus.Grid, head *job.Job, running []Running, now float64) bool {
	return m.valid && m.head == head &&
		(now == m.now || m.time > m.now && m.time >= now) &&
		gr.Geometry() == m.geom && slices.Equal(m.occ, gr.Occupancy()) &&
		slices.Equal(m.running, running)
}

// reserve brings s.res up to date for the blocked head. Unless the
// memo answers, it simulates the estimated completions of running jobs
// on a scratch grid to find the earliest time the head job fits, and
// keeps that step's candidates for reservedPart. The scratch grid is
// reused across calls (CopyFrom instead of Clone), so a reservation
// allocates no grid; running may be sorted in place (callers pass the
// scheduler's own buffer).
func (s *Scheduler) reserve(gr *torus.Grid, head *job.Job, running []Running, now float64) error {
	m := &s.res
	if m.reusable(gr, head, running, now) {
		s.met.reservationsReuse.Inc()
		return nil
	}
	s.met.reservations.Inc()
	m.valid, m.chosen = false, false
	m.geom, m.head, m.now = gr.Geometry(), head, now
	m.occ = append(m.occ[:0], gr.Occupancy()...)
	m.running = append(m.running[:0], running...)
	for i := range s.noFit {
		s.noFit[i] &^= allReserved
	}
	if s.scratch == nil || s.scratch.Geometry() != gr.Geometry() {
		s.scratch = gr.Clone()
	} else if err := s.scratch.CopyFrom(gr); err != nil {
		return fmt.Errorf("core: reservation: %w", err)
	}
	s.sorter.rs = running
	sort.Sort(&s.sorter)
	s.sorter.rs = nil

	for i, r := range running {
		if err := s.scratch.Release(r.Part, int64(r.Job.ID)); err != nil {
			return fmt.Errorf("core: reservation: %w", err)
		}
		// A plain finder returns a fresh slice and leaves the buffer
		// alone, so keep what it returns.
		if s.resCands = s.freeOfSize(s.scratch, head.AllocSize, &s.resCands); len(s.resCands) > 0 {
			s.met.reservationDrain.Observe(float64(i + 1))
			m.time, m.ok, m.valid = math.Max(r.ExpFinish, now), true, true
			return nil
		}
	}
	// Head cannot fit even on the drained machine (possible only if its
	// allocation exceeds machine capacity, which upstream validation
	// prevents). Degenerate reservation: no constraint.
	m.time, m.ok, m.valid = math.Inf(1), false, true
	return nil
}

// reservedPart returns the reserved partition, choosing it on first
// use: the policy's pick among the kept candidates, after
// preferPlacement, on the drained scratch grid at the reservation time.
// Choose is deterministic (see Policy), so neither choosing late nor
// reusing the choice changes it.
func (s *Scheduler) reservedPart() (torus.Partition, error) {
	m := &s.res
	if !m.chosen {
		cands := s.resCands
		s.preferPlacement(s.scratch, cands)
		ctx := s.placementCtx(s.scratch, m.head, m.time)
		idx, err := s.cfg.Policy.Choose(ctx, cands)
		if err != nil {
			return torus.Partition{}, fmt.Errorf("core: reservation policy %s: %w", s.cfg.Policy.Name(), err)
		}
		if idx >= len(cands) {
			return torus.Partition{}, fmt.Errorf("core: policy %s chose index %d of %d candidates",
				s.cfg.Policy.Name(), idx, len(cands))
		}
		if idx < 0 {
			idx = 0 // a reservation must hold some partition
		}
		m.part, m.chosen = cands[idx], true
	}
	return m.part, nil
}

// tryBackfill starts j now if doing so cannot delay the reserved head
// start: either j is estimated to finish before the reservation time,
// or its partition does not intersect the reserved partition.
func (s *Scheduler) tryBackfill(gr *torus.Grid, j *job.Job, now float64) (Decision, bool, error) {
	finishesInTime := now+j.Estimate <= s.res.time
	mustAvoid := !finishesInTime && s.res.ok // j must keep off the reserved partition
	if s.knownNoFit(j.AllocSize, noFreePart) || mustAvoid && s.knownNoFit(j.AllocSize, allReserved) {
		return Decision{}, false, nil
	}
	cands := s.freeOfSize(gr, j.AllocSize, &s.cands)
	if len(cands) == 0 {
		s.rememberNoFit(j.AllocSize, noFreePart)
		return Decision{}, false, nil
	}
	if mustAvoid {
		reserved, err := s.reservedPart()
		if err != nil {
			return Decision{}, false, err
		}
		// Filter in place: the candidate buffer is ours (buffered
		// finder) or a fresh slice (plain finder), and the kept order is
		// the original order either way.
		g := gr.Geometry()
		filtered := cands[:0]
		for _, p := range cands {
			if !g.Overlaps(p, reserved) {
				filtered = append(filtered, p)
			}
		}
		cands = filtered
		if len(cands) == 0 {
			s.rememberNoFit(j.AllocSize, allReserved)
			return Decision{}, false, nil
		}
	}
	s.preferPlacement(gr, cands)
	ctx := s.placementCtx(gr, j, now)
	idx, err := s.cfg.Policy.Choose(ctx, cands)
	if err != nil {
		return Decision{}, false, fmt.Errorf("core: backfill policy %s: %w", s.cfg.Policy.Name(), err)
	}
	if idx < 0 {
		return Decision{}, false, nil
	}
	if idx >= len(cands) {
		return Decision{}, false, fmt.Errorf("core: policy %s chose index %d of %d candidates",
			s.cfg.Policy.Name(), idx, len(cands))
	}
	p := cands[idx]
	if err := gr.Allocate(p, int64(j.ID)); err != nil {
		return Decision{}, false, fmt.Errorf("core: backfill %v: %w", j, err)
	}
	return Decision{Job: j, Part: p}, true, nil
}
