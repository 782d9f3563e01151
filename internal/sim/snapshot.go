package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"bgsched/internal/job"
	"bgsched/internal/metrics"
	"bgsched/internal/snapshot"
	"bgsched/internal/torus"
)

// worldJob is the canonical serialized form of one job for world
// hashing: every immutable field, no pointers, fixed field order.
type worldJob struct {
	ID        int64
	Arrival   float64
	Size      int
	AllocSize int
	Estimate  float64
	Actual    float64
}

// computeWorld fingerprints a configuration's immutable inputs: the
// machine geometry, the job log and the failure trace. Snapshot stamps
// it; NewFromSnapshot refuses a config whose world differs, so branch
// replay can swap policies but never the physics.
func computeWorld(cfg Config) (snapshot.World, error) {
	jobs := make([]worldJob, 0, len(cfg.Jobs))
	for _, j := range cfg.Jobs {
		jobs = append(jobs, worldJob{
			ID: int64(j.ID), Arrival: j.Arrival, Size: j.Size,
			AllocSize: j.AllocSize, Estimate: j.Estimate, Actual: j.Actual,
		})
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	jb, err := json.Marshal(jobs)
	if err != nil {
		return snapshot.World{}, fmt.Errorf("sim: hash jobs: %w", err)
	}
	fb, err := json.Marshal(cfg.Failures)
	if err != nil {
		return snapshot.World{}, fmt.Errorf("sim: hash failures: %w", err)
	}
	js, fs := sha256.Sum256(jb), sha256.Sum256(fb)
	return snapshot.World{
		Geometry: cfg.Geometry.Spec(),
		Jobs:     hex.EncodeToString(js[:]),
		Failures: hex.EncodeToString(fs[:]),
	}, nil
}

// Snapshot captures the complete simulator state at the current event
// boundary. Call it on a simulator paused by RunToEvent (done=false);
// the result restores through NewFromSnapshot into a continuation that
// replays byte-identically to the uninterrupted run.
func (s *Simulator) Snapshot() (*snapshot.State, error) {
	world, err := computeWorld(s.cfg)
	if err != nil {
		return nil, err
	}
	st := &snapshot.State{
		World:        world,
		Now:          s.k.now,
		Dispatched:   s.k.dispatched,
		NextEventSeq: s.k.queue.nextSeq,
		Owners:       s.grid.Owners(),
		Tracker:      s.tracker.State(),
	}

	// Calendar, sorted by the (time, seq) dispatch order. The heap's
	// internal layout is traversal-order dependent; the sorted array is
	// the canonical form (and itself a valid min-heap).
	evs := make([]event, len(s.k.queue.events))
	copy(evs, s.k.queue.events)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].time != evs[j].time {
			return evs[i].time < evs[j].time
		}
		return evs[i].seq < evs[j].seq
	})
	st.Calendar = make([]snapshot.Event, len(evs))
	for i, e := range evs {
		st.Calendar[i] = snapshot.Event{
			Time: e.time, Seq: e.seq, Kind: int(e.kind),
			Job: int64(e.jobID), Epoch: e.epoch, Node: e.node,
		}
	}

	for _, j := range s.queue.Jobs() {
		st.Queue = append(st.Queue, int64(j.ID))
	}

	st.Running = make([]snapshot.RunState, 0, len(s.running))
	for id, r := range s.running {
		st.Running = append(st.Running, snapshot.RunState{
			Job: int64(id), Part: r.part, Start: r.start, Epoch: r.epoch,
			FinishTime: r.finishTime, ExpFinish: r.expFinish,
			OverheadSoFar: r.overheadSoFar, SavedAtStart: r.savedAtStart,
			RestartPenaltyPaid: r.restartPenaltyPaid,
		})
	}
	sort.Slice(st.Running, func(i, j int) bool { return st.Running[i].Job < st.Running[j].Job })

	st.Progress = make([]snapshot.JobProgress, 0, len(s.progress))
	for id, p := range s.progress {
		st.Progress = append(st.Progress, snapshot.JobProgress{
			Job: int64(id), FirstStart: p.firstStart, Started: p.started,
			Restarts: p.restarts, LostWork: p.lostWork, SavedWork: p.savedWork,
			LastStart: p.lastStart, NextEpoch: p.nextEpoch, LastSeq: p.lastSeq,
		})
	}
	sort.Slice(st.Progress, func(i, j int) bool { return st.Progress[i].Job < st.Progress[j].Job })

	st.Outcomes = append([]metrics.Outcome(nil), s.outcomes...)
	st.Counters = snapshot.Counters{
		Pending: s.pending, Starts: s.nStarts, Finishes: s.nFinishes, Kills: s.nKills,
		FailureEvents: s.result.FailureEvents, JobKills: s.result.JobKills,
		Migrations: s.result.Migrations, Checkpoints: s.result.Checkpoints,
		Backfills: s.result.Backfills, LastFinishSeq: s.lastFinishSeq,
	}
	if s.elog != nil {
		st.ElogSeq = s.elog.seq
	}
	if s.cfg.Trace != nil {
		st.TraceSeq = s.cfg.Trace.Seq()
	}
	for _, p := range s.result.Timeline {
		st.Timeline = append(st.Timeline, snapshot.TimelinePoint{
			Time: p.Time, FreeNodes: p.FreeNodes, QueueJobs: p.QueueJobs,
			QueueDemand: p.QueueDemand, Running: p.Running,
		})
	}
	// Mechanism state, in name order: each entry only when non-nil.
	ck, err := s.checkpointState()
	if err != nil {
		return nil, err
	}
	if ck != nil {
		st.Subsystems = append(st.Subsystems, snapshot.SubsystemState{Name: "checkpoint", Data: ck})
	}
	cs, err := s.contentionState()
	if err != nil {
		return nil, err
	}
	if cs != nil {
		st.Subsystems = append(st.Subsystems, snapshot.SubsystemState{Name: "contention", Data: cs})
	}

	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("sim: captured inconsistent snapshot: %w", err)
	}
	return st, nil
}

// NewFromSnapshot builds a simulator resuming from a captured state.
// The config must describe the same world (geometry, jobs, failures) —
// everything else (scheduler, finder, checkpoint policy, output
// writers) may differ, which is what makes branch replay a policy
// counterfactual rather than a new run. The restored simulator
// continues with RunToEvent or RunContext.
func NewFromSnapshot(cfg Config, st *snapshot.State) (*Simulator, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	world, err := computeWorld(cfg)
	if err != nil {
		return nil, err
	}
	if world != st.World {
		return nil, fmt.Errorf("sim: snapshot world mismatch: snapshot {geom %s jobs %.12s failures %.12s}, config {geom %s jobs %.12s failures %.12s}",
			st.World.Geometry, st.World.Jobs, st.World.Failures,
			world.Geometry, world.Jobs, world.Failures)
	}

	s := newSimulator(cfg)
	s.k.now = st.Now
	s.k.dispatched = st.Dispatched

	// Calendar. The serialized form is (time, seq)-sorted, which is
	// already a valid min-heap; Init anyway so correctness never rides
	// on that observation.
	s.k.queue.events = make([]event, len(st.Calendar))
	for i, e := range st.Calendar {
		if e.Kind < 0 || e.Kind >= int(evKindCount) {
			return nil, fmt.Errorf("sim: snapshot calendar entry %d: unknown event kind %d", i, e.Kind)
		}
		s.k.queue.events[i] = event{
			time: e.Time, seq: e.Seq, kind: eventKind(e.Kind),
			jobID: job.ID(e.Job), epoch: e.Epoch, node: e.Node,
		}
	}
	s.k.queue.init()
	s.k.queue.nextSeq = st.NextEventSeq

	// Occupancy, with every owner resolved: a job id we know, or the
	// downtime hold.
	for i, o := range st.Owners {
		if o == torus.FreeOwner || o == downOwner {
			continue
		}
		if o < 0 || s.jobsByID[job.ID(o)] == nil {
			return nil, fmt.Errorf("sim: snapshot node %d owned by unknown job %d", i, o)
		}
	}
	grid, err := torus.NewGridFromOwners(cfg.Geometry, st.Owners)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot occupancy: %w", err)
	}
	s.grid = grid

	for _, id := range st.Queue {
		j := s.jobsByID[job.ID(id)]
		if j == nil {
			return nil, fmt.Errorf("sim: snapshot queues unknown job %d", id)
		}
		s.queue.Push(j)
	}

	for _, r := range st.Running {
		j := s.jobsByID[job.ID(r.Job)]
		if j == nil {
			return nil, fmt.Errorf("sim: snapshot runs unknown job %d", r.Job)
		}
		ok := cfg.Geometry.ForEachNode(r.Part, func(id int) bool {
			return s.grid.OwnerAt(id) == r.Job
		})
		if !ok {
			return nil, fmt.Errorf("sim: snapshot job %d claims partition %v it does not fully own", r.Job, r.Part)
		}
		s.running[job.ID(r.Job)] = &runState{
			job: j, part: r.Part, start: r.Start, epoch: r.Epoch,
			finishTime: r.FinishTime, expFinish: r.ExpFinish,
			overheadSoFar: r.OverheadSoFar, savedAtStart: r.SavedAtStart,
			restartPenaltyPaid: r.RestartPenaltyPaid,
		}
	}

	for _, p := range st.Progress {
		if s.jobsByID[job.ID(p.Job)] == nil {
			return nil, fmt.Errorf("sim: snapshot tracks unknown job %d", p.Job)
		}
		s.progress[job.ID(p.Job)] = &jobProgress{
			firstStart: p.FirstStart, started: p.Started, restarts: p.Restarts,
			lostWork: p.LostWork, savedWork: p.SavedWork, lastStart: p.LastStart,
			nextEpoch: p.NextEpoch, lastSeq: p.LastSeq,
		}
	}
	if len(s.progress) != len(cfg.Jobs) {
		return nil, fmt.Errorf("sim: snapshot tracks %d jobs, config has %d", len(s.progress), len(cfg.Jobs))
	}

	s.outcomes = append([]metrics.Outcome(nil), st.Outcomes...)
	c := st.Counters
	if c.Pending != len(cfg.Jobs)-c.Finishes {
		return nil, fmt.Errorf("sim: snapshot pending count %d inconsistent with %d jobs, %d finished",
			c.Pending, len(cfg.Jobs), c.Finishes)
	}
	s.pending = c.Pending
	s.nStarts, s.nFinishes, s.nKills = c.Starts, c.Finishes, c.Kills
	s.result.FailureEvents = c.FailureEvents
	s.result.JobKills = c.JobKills
	s.result.Migrations = c.Migrations
	s.result.Checkpoints = c.Checkpoints
	s.result.Backfills = c.Backfills
	s.lastFinishSeq = c.LastFinishSeq

	s.tracker.Restore(st.Tracker)
	if s.elog != nil {
		s.elog.seq = st.ElogSeq
	}
	s.cfg.Trace.AdvanceTo(st.TraceSeq)
	if cfg.RecordTimeline {
		for _, p := range st.Timeline {
			s.result.Timeline = append(s.result.Timeline, TimelinePoint{
				Time: p.Time, FreeNodes: p.FreeNodes, QueueJobs: p.QueueJobs,
				QueueDemand: p.QueueDemand, Running: p.Running,
			})
		}
	}

	byName := make(map[string]json.RawMessage, len(st.Subsystems))
	for _, ss := range st.Subsystems {
		if _, dup := byName[ss.Name]; dup {
			return nil, fmt.Errorf("sim: snapshot has duplicate subsystem state %q", ss.Name)
		}
		if ss.Name != "checkpoint" && ss.Name != "contention" {
			return nil, fmt.Errorf("sim: snapshot carries state for unknown subsystem %q", ss.Name)
		}
		byName[ss.Name] = ss.Data
	}
	if err := s.restoreContention(byName["contention"]); err != nil {
		return nil, err
	}
	if err := s.restoreCheckpoint(byName["checkpoint"]); err != nil {
		return nil, err
	}

	// The prefix run already took the initial observation; the restored
	// simulator must not observe the boundary instant a second time.
	s.started = true
	return s, nil
}
