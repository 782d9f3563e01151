package core

import (
	"strings"
	"testing"

	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

func newTestScheduler(t *testing.T, mode BackfillMode) *Scheduler {
	t.Helper()
	s, err := NewScheduler(Config{Policy: Baseline{}, Backfill: mode})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(Config{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewScheduler(Config{Policy: Baseline{}, Backfill: BackfillMode(9)}); err == nil {
		t.Error("bad backfill mode accepted")
	}
	s, err := NewScheduler(Config{Policy: Baseline{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Finder == nil {
		t.Error("default finder not installed")
	}
}

func TestBackfillModeString(t *testing.T) {
	for mode, want := range map[BackfillMode]string{
		BackfillNone: "none", BackfillAggressive: "aggressive", BackfillEASY: "easy",
	} {
		if mode.String() != want {
			t.Errorf("String(%d) = %q", int(mode), mode.String())
		}
	}
	if got := BackfillMode(7).String(); got != "BackfillMode(7)" {
		t.Errorf("unknown mode String = %q", got)
	}
}

func TestScheduleStartsFCFS(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	q := job.NewQueue()
	q.Push(testJob(1, 64, 100))
	q.Push(testJob(2, 64, 100))
	q.Push(testJob(3, 64, 100)) // won't fit: machine holds only 128

	s := newTestScheduler(t, BackfillNone)
	ds, err := s.Schedule(gr, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("started %d jobs, want 2", len(ds))
	}
	if ds[0].Job.ID != 1 || ds[1].Job.ID != 2 {
		t.Fatalf("start order %d, %d", ds[0].Job.ID, ds[1].Job.ID)
	}
	if q.Len() != 1 || q.Peek().ID != 3 {
		t.Fatalf("queue after schedule: len=%d", q.Len())
	}
	if gr.FreeCount() != 0 {
		t.Fatalf("free count = %d, want 0", gr.FreeCount())
	}
	// Decisions' partitions must be allocated to the right owners.
	for _, d := range ds {
		for _, id := range g.Nodes(d.Part) {
			if gr.OwnerAt(id) != int64(d.Job.ID) {
				t.Fatalf("node %d owner = %d, want %d", id, gr.OwnerAt(id), d.Job.ID)
			}
		}
	}
}

func TestScheduleNoBackfillBlocksBehindHead(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// Occupy half the machine so a 128-node head cannot start.
	if err := gr.Allocate(torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 4}}, 99); err != nil {
		t.Fatal(err)
	}
	q := job.NewQueue()
	q.Push(testJob(1, 128, 100)) // blocked head
	q.Push(testJob(2, 1, 10))    // would fit

	s := newTestScheduler(t, BackfillNone)
	ds, err := s.Schedule(gr, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("BackfillNone started %d jobs behind a blocked head", len(ds))
	}
}

func TestScheduleAggressiveBackfill(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	if err := gr.Allocate(torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 4}}, 99); err != nil {
		t.Fatal(err)
	}
	q := job.NewQueue()
	q.Push(testJob(1, 128, 100))
	q.Push(testJob(2, 8, 10))
	q.Push(testJob(3, 8, 10))

	s := newTestScheduler(t, BackfillAggressive)
	ds, err := s.Schedule(gr, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("aggressive backfill started %d jobs, want 2", len(ds))
	}
	if q.Peek().ID != 1 {
		t.Fatal("head must remain queued")
	}
}

func TestScheduleEASYProtectsReservation(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// One running job holds half the machine until t=100.
	runningJob := testJob(50, 64, 100)
	part := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 4}}
	if err := gr.Allocate(part, int64(runningJob.ID)); err != nil {
		t.Fatal(err)
	}
	running := []Running{{Job: runningJob, Part: part, Start: 0, ExpFinish: 100}}

	q := job.NewQueue()
	q.Push(testJob(1, 128, 1000)) // head: needs the whole machine, reserved at t=100
	longJob := testJob(2, 64, 1000)
	q.Push(longJob) // would finish way past the reservation and must overlap it

	s := newTestScheduler(t, BackfillEASY)
	ds, err := s.Schedule(gr, q, running, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("EASY allowed a backfill that delays the head: %v", ds)
	}

	// A short job that finishes before t=100 is allowed.
	q2 := job.NewQueue()
	q2.Push(testJob(1, 128, 1000))
	q2.Push(testJob(3, 64, 50))
	ds, err = s.Schedule(gr, q2, running, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Job.ID != 3 {
		t.Fatalf("EASY rejected a safe backfill: %v", ds)
	}
}

func TestScheduleEASYDisjointBackfill(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// Running job holds a 4x4x2 slab (z in 0..1) until t=100.
	runningJob := testJob(50, 32, 100)
	part := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 2}}
	if err := gr.Allocate(part, int64(runningJob.ID)); err != nil {
		t.Fatal(err)
	}
	running := []Running{{Job: runningJob, Part: part, Start: 0, ExpFinish: 100}}

	q := job.NewQueue()
	// Head needs 128 nodes; reservation at t=100 covering the machine.
	q.Push(testJob(1, 128, 1000))
	// A long small job cannot avoid the full-machine reservation and
	// cannot finish in time: must not start.
	q.Push(testJob(2, 8, 1000))
	s := newTestScheduler(t, BackfillEASY)
	ds, err := s.Schedule(gr, q, running, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("backfill overlapped a full-machine reservation: %v", ds)
	}

	// Now a tighter scenario: occupy everything except the running slab
	// and the z=7 plane, so the head (32 nodes) only fits where the
	// running job sits; its reservation covers the slab, and a long
	// small job in the z=7 plane is disjoint from it and may backfill.
	gr2 := torus.NewGrid(g)
	if err := gr2.Allocate(torus.Partition{Base: torus.Coord{Z: 2}, Shape: torus.Shape{X: 4, Y: 4, Z: 5}}, 98); err != nil {
		t.Fatal(err)
	}
	// Free: z=0..1 slab (running) and z=7 plane (16 nodes).
	if err := gr2.Allocate(part, int64(runningJob.ID)); err != nil {
		t.Fatal(err)
	}
	qq := job.NewQueue()
	qq.Push(testJob(5, 32, 1000)) // head: only fits in the slab at t=100
	qq.Push(testJob(6, 8, 1000))  // long, but fits in the z=7 plane: disjoint from reservation
	ds, err = s.Schedule(gr2, qq, running, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Job.ID != 6 {
		t.Fatalf("disjoint long backfill should start: %v", ds)
	}
	for _, id := range g.Nodes(ds[0].Part) {
		c := g.CoordOf(id)
		if c.Z < 2 {
			t.Fatalf("backfill touched the reserved slab at %v", c)
		}
	}
}

// badIndexPolicy answers one index past its candidates on the live
// grid (onLive) or on any other grid — the EASY reservation's scratch
// grid — and the first candidate elsewhere.
type badIndexPolicy struct {
	live   *torus.Grid
	onLive bool
}

func (badIndexPolicy) Name() string { return "badindex" }
func (p badIndexPolicy) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	if (ctx.Grid == p.live) == p.onLive {
		return len(cands), nil
	}
	return 0, nil
}

// TestSchedulePolicyIndexOutOfRange: an index past the candidates is an
// error wherever the policy chooses — starting a job, backfilling one,
// or choosing the EASY reservation's partition for a backfill that must
// avoid it — never a silent substitute.
func TestSchedulePolicyIndexOutOfRange(t *testing.T) {
	g := torus.BlueGeneL()
	slab := torus.Partition{Shape: torus.Shape{X: 4, Y: 4, Z: 2}}
	cases := []struct {
		name   string
		onLive bool
		queue  []*job.Job
	}{
		{"start", true, []*job.Job{testJob(6, 8, 1000)}},
		// The head (32 nodes) fits only in the running slab, at t=100;
		// the long job fits now, in the z=7 plane.
		{"backfill", true, []*job.Job{testJob(5, 32, 1000), testJob(6, 8, 1000)}},
		{"reservation", false, []*job.Job{testJob(5, 32, 1000), testJob(6, 8, 1000)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gr := torus.NewGrid(g)
			if err := gr.Allocate(torus.Partition{Base: torus.Coord{Z: 2}, Shape: torus.Shape{X: 4, Y: 4, Z: 5}}, 98); err != nil {
				t.Fatal(err)
			}
			runningJob := testJob(50, 32, 100)
			if err := gr.Allocate(slab, int64(runningJob.ID)); err != nil {
				t.Fatal(err)
			}
			running := []Running{{Job: runningJob, Part: slab, Start: 0, ExpFinish: 100}}
			q := job.NewQueue()
			for _, j := range tc.queue {
				q.Push(j)
			}
			s, err := NewScheduler(Config{Policy: badIndexPolicy{live: gr, onLive: tc.onLive}, Backfill: BackfillEASY})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := s.Schedule(gr, q, running, 0)
			if err == nil || !strings.Contains(err.Error(), "chose index") {
				t.Fatalf("Schedule = %v, %v; want the out-of-range index refused", ds, err)
			}
		})
	}
}

// Aggressive backfill scans the queue in FCFS order: when two queued
// jobs compete for the same hole, the older one gets it.
func TestAggressiveBackfillFCFSOrder(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// 96 nodes busy; a 32-node hole remains.
	if err := gr.Allocate(torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 6}}, 99); err != nil {
		t.Fatal(err)
	}
	q := job.NewQueue()
	q.Push(testJob(1, 128, 100)) // blocked head
	older := testJob(2, 32, 100)
	older.Arrival = 10
	newer := testJob(3, 32, 100)
	newer.Arrival = 20
	q.Push(newer)
	q.Push(older)

	s := newTestScheduler(t, BackfillAggressive)
	ds, err := s.Schedule(gr, q, nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Job.ID != 2 {
		t.Fatalf("backfill order wrong: %v", ds)
	}
}

// The fault-aware window passed to the predictor is the job's
// remaining estimate from "now": a placement at time t for a job with
// estimate e must ignore failures after t+e.
func TestBalancingWindowEndsAtEstimate(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// Two symmetric candidate columns; one fails *after* the job would
	// complete. Balancing must treat both as equally safe and pick by
	// MFP order, i.e. not systematically avoid the late-failing one.
	for id := 0; id < g.N(); id++ {
		c := g.CoordOf(id)
		inA := c.X == 0 && c.Y == 0 && c.Z < 4
		inB := c.X == 2 && c.Y == 2 && c.Z < 4
		if !inA && !inB {
			if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 99); err != nil {
				t.Fatal(err)
			}
		}
	}
	lateNode := g.Index(torus.Coord{X: 0, Y: 0, Z: 1})
	ix := failure.NewIndex(g.N(), failure.Trace{{Time: 5000, Node: lateNode}})
	pol := &Balancing{Prober: &predict.Balancing{Index: ix, Confidence: 0.9}}
	j := testJob(1, 4, 1000) // finishes at t=1000, long before the failure
	cands := partition.ShapeFinder{}.FreeOfSize(gr, 4)
	idx := mustChoose(t, pol, ctxFor(gr, j, 0), cands)
	// Both candidates have P_f = 0; the first (deterministic order)
	// must win, even though it contains the late-failing node.
	if idx != 0 {
		t.Fatalf("late failure outside the window influenced placement: chose %d", idx)
	}
}

func TestScheduleEmptyQueue(t *testing.T) {
	s := newTestScheduler(t, BackfillEASY)
	ds, err := s.Schedule(torus.NewGrid(torus.BlueGeneL()), job.NewQueue(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatal("empty queue produced decisions")
	}
}

func TestScheduleWithFaultAwarePolicies(t *testing.T) {
	// Smoke test: both fault-aware policies drive a full Schedule call.
	for _, pol := range []Policy{
		&Balancing{Prober: predict.Null{}},
		&TieBreak{Oracle: predict.Null{}},
	} {
		s, err := NewScheduler(Config{Policy: pol, Backfill: BackfillEASY})
		if err != nil {
			t.Fatal(err)
		}
		gr := torus.NewGrid(torus.BlueGeneL())
		q := job.NewQueue()
		q.Push(testJob(1, 32, 100))
		q.Push(testJob(2, 64, 100))
		ds, err := s.Schedule(gr, q, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 2 {
			t.Fatalf("%s: started %d, want 2", pol.Name(), len(ds))
		}
	}
}

func TestMigrateCompacts(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	s := newTestScheduler(t, BackfillNone)

	// Fragment: two 4x4x1 plane jobs at z=0 and z=4 split the free
	// space into two 4x4x3 regions (MFP 48). Migrating one plane next
	// to the other yields a 4x4x6 free block (MFP 96).
	j1, j2 := testJob(1, 16, 100), testJob(2, 16, 100)
	p1 := torus.Partition{Base: torus.Coord{Z: 0}, Shape: torus.Shape{X: 4, Y: 4, Z: 1}}
	p2 := torus.Partition{Base: torus.Coord{Z: 4}, Shape: torus.Shape{X: 4, Y: 4, Z: 1}}
	if err := gr.Allocate(p1, 1); err != nil {
		t.Fatal(err)
	}
	if err := gr.Allocate(p2, 2); err != nil {
		t.Fatal(err)
	}
	if _, mfp := partition.MaxFree(gr); mfp != 48 {
		t.Fatalf("precondition MFP = %d, want 48", mfp)
	}
	running := []Running{
		{Job: j1, Part: p1, Start: 0, ExpFinish: 100},
		{Job: j2, Part: p2, Start: 0, ExpFinish: 100},
	}
	moves, err := s.Migrate(gr, running)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no migrations on a fragmented machine")
	}
	if _, mfp := partition.MaxFree(gr); mfp < 96 {
		t.Fatalf("post-migration MFP = %d, want >= 96", mfp)
	}
	// Grid must stay consistent: both jobs still hold their sizes.
	if gr.FreeCount() != 128-32 {
		t.Fatalf("free count = %d", gr.FreeCount())
	}
}

func TestMigrateNoopWhenCompact(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	s := newTestScheduler(t, BackfillNone)
	j1 := testJob(1, 64, 100)
	p1 := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 4}}
	if err := gr.Allocate(p1, 1); err != nil {
		t.Fatal(err)
	}
	moves, err := s.Migrate(gr, []Running{{Job: j1, Part: p1, Start: 0, ExpFinish: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("compact layout migrated: %v", moves)
	}
}

func TestMigrateEmptyRunning(t *testing.T) {
	s := newTestScheduler(t, BackfillNone)
	moves, err := s.Migrate(torus.NewGrid(torus.BlueGeneL()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatal("migrations from nothing")
	}
}

// countingFinder is the shape finder counting the queries it answers
// on one grid (the live one), per size, and in total on any other grid
// (the reservation's scratch).
type countingFinder struct {
	partition.ShapeFinder
	live    *torus.Grid
	calls   map[int]int
	scratch int
}

func (f *countingFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	return f.FreeOfSizeInto(gr, size, nil)
}

func (f *countingFinder) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	if gr == f.live {
		f.calls[size]++
	} else {
		f.scratch++
	}
	return f.ShapeFinder.FreeOfSizeInto(gr, size, buf)
}

// countingPolicy is the baseline policy counting the Choose calls it
// answers on the live grid and on any other grid (the reservation's
// scratch).
type countingPolicy struct {
	Baseline
	live              *torus.Grid
	onLive, onScratch int
}

func (p *countingPolicy) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	if ctx.Grid == p.live {
		p.onLive++
	} else {
		p.onScratch++
	}
	return p.Baseline.Choose(ctx, cands)
}

// stripedGrid occupies the even z-planes with four running jobs that
// are expected to finish at t=100..400, leaving 64 free nodes in
// single-plane strips: a 16-node job fits, a 32-node one (every shape
// of which spans two z-planes or more) does not, and a 128-node head
// is reserved the whole machine at t=400.
func stripedGrid(t *testing.T) (*torus.Grid, []Running) {
	t.Helper()
	gr := torus.NewGrid(torus.BlueGeneL())
	var running []Running
	for i := 0; i < 4; i++ {
		j := testJob(90+i, 16, 100*float64(i+1))
		p := torus.Partition{Base: torus.Coord{Z: 2 * i}, Shape: torus.Shape{X: 4, Y: 4, Z: 1}}
		if err := gr.Allocate(p, int64(j.ID)); err != nil {
			t.Fatal(err)
		}
		running = append(running, Running{Job: j, Part: p, ExpFinish: j.Estimate})
	}
	return gr, running
}

// The no-fit memo: behind a blocked head, N queued jobs of a size with
// no free partition cost one live-grid finder query for that size, not
// N, under both backfill modes, and a second call on the state the
// first left costs none, until a release changes the state. Under EASY
// a size whose every free partition overlaps the reservation is not
// re-queried for later long jobs, while a job of that size that
// finishes before the reservation is still queried and backfilled.
func TestScheduleNoFitMemo(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		mode BackfillMode
		// Size-32 queries after the release: aggressive starts one job in
		// the freed slab and learns the next finds nothing; under EASY
		// the first long job learns every candidate overlaps the
		// reservation.
		after32 int
	}{{BackfillAggressive, 3}, {BackfillEASY, 2}} {
		mode := tc.mode
		gr, running := stripedGrid(t)
		f := &countingFinder{live: gr, calls: map[int]int{}}
		s, err := NewScheduler(Config{Policy: Baseline{}, Finder: f, Backfill: mode})
		if err != nil {
			t.Fatal(err)
		}
		q := job.NewQueue()
		q.Push(testJob(1, 128, 1000))
		for i := 0; i < n; i++ {
			q.Push(testJob(10+i, 32, 1000))
		}
		for call := 1; call <= 2; call++ {
			ds, err := s.Schedule(gr, q, running, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds) != 0 {
				t.Fatalf("%v: started %v, nothing fits", mode, ds)
			}
			if f.calls[32] != 1 || f.calls[128] != 1 {
				t.Fatalf("%v: after %d Schedule calls, %d queries for size 32 and %d for 128, want 1 each",
					mode, call, f.calls[32], f.calls[128])
			}
		}
		// Freeing the z=0 plane joins it to the free z=1 plane: the
		// memo no longer describes the state and every size is asked
		// again.
		if err := gr.Release(running[0].Part, int64(running[0].Job.ID)); err != nil {
			t.Fatal(err)
		}
		ds, err := s.Schedule(gr, q, running[1:], 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.calls[128] != 2 || f.calls[32] != tc.after32 {
			t.Fatalf("%v: after a release, %d queries for size 32 and %d for 128, want %d and 2",
				mode, f.calls[32], f.calls[128], tc.after32)
		}
		if want := tc.after32 - 2; len(ds) != want {
			t.Fatalf("%v: started %v after the release, want %d jobs", mode, ds, want)
		}
	}

	gr, running := stripedGrid(t)
	f := &countingFinder{live: gr, calls: map[int]int{}}
	s, err := NewScheduler(Config{Policy: Baseline{}, Finder: f, Backfill: BackfillEASY})
	if err != nil {
		t.Fatal(err)
	}
	q := job.NewQueue()
	q.Push(testJob(1, 128, 1000)) // reserved the whole machine at t=400
	q.Push(testJob(2, 16, 1000))  // fits, but only on the reservation: refused, memoized
	q.Push(testJob(3, 16, 1000))  // same size and also long: answered by the memo
	q.Push(testJob(4, 16, 50))    // same size, done by t=50: queried and started
	q.Push(testJob(5, 16, 1000))  // long again: the memo still holds
	ds, err := s.Schedule(gr, q, running, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Job.ID != 4 {
		t.Fatalf("EASY started %v, want only job 4", ds)
	}
	if f.calls[16] != 2 {
		t.Fatalf("%d live-grid queries for size 16, want 2 (jobs 2 and 4)", f.calls[16])
	}
}

// reservationScheduler is an EASY scheduler over gr with a counting
// finder, a counting policy and a telemetry registry.
func reservationScheduler(t *testing.T, gr *torus.Grid) (*Scheduler, *countingFinder, *countingPolicy, *telemetry.Registry) {
	t.Helper()
	f := &countingFinder{live: gr, calls: map[int]int{}}
	p := &countingPolicy{live: gr}
	reg := telemetry.New()
	s, err := NewScheduler(Config{Policy: p, Finder: f, Backfill: BackfillEASY, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s, f, p, reg
}

// The reservation memo and the partition chosen on demand, counted on
// the striped grid, whose 128-node head is reserved the whole machine
// once the fourth running job drains.
func TestReservationMemo(t *testing.T) {
	counts := func(reg *telemetry.Registry) (computed, reused int64) {
		return reg.Counter("sched.reservations.computed").Value(), reg.Counter("sched.reservations.reused").Value()
	}

	t.Run("unchanged inputs reuse everything", func(t *testing.T) {
		gr, running := stripedGrid(t)
		s, f, p, reg := reservationScheduler(t, gr)
		q := job.NewQueue()
		q.Push(testJob(1, 128, 1000))
		q.Push(testJob(2, 16, 1000)) // long: must keep off the reservation, so it reads the partition
		for call := 1; call <= 2; call++ {
			if ds, err := s.Schedule(gr, q, running, 0); err != nil || len(ds) != 0 {
				t.Fatalf("call %d: started %v (err %v), nothing may start", call, ds, err)
			}
			if f.scratch != 4 || p.onScratch != 1 {
				t.Fatalf("call %d: %d scratch-grid finder queries and %d scratch-grid policy calls, want 4 and 1",
					call, f.scratch, p.onScratch)
			}
		}
		if c, r := counts(reg); c != 1 || r != 1 {
			t.Fatalf("reservations computed %d, reused %d; want 1 and 1", c, r)
		}
	})

	t.Run("check time at now moves with now", func(t *testing.T) {
		gr, running := stripedGrid(t)
		s, f, _, reg := reservationScheduler(t, gr)
		q := job.NewQueue()
		q.Push(testJob(1, 128, 1000))
		q.Push(testJob(2, 16, 1000))
		// Every running job is past its ExpFinish (100..400), so the head
		// is reserved at now itself, and a later now is a new time.
		for _, now := range []float64{500, 500, 600} {
			if _, err := s.Schedule(gr, q, running, now); err != nil {
				t.Fatal(err)
			}
		}
		if c, r := counts(reg); c != 2 || r != 1 {
			t.Fatalf("reservations computed %d, reused %d; want 2 and 1", c, r)
		}
		if f.scratch != 8 {
			t.Fatalf("%d scratch-grid finder queries, want 8 (two drains of 4)", f.scratch)
		}
		// Reserved at a future ExpFinish (400), the time holds while now
		// stays at or before it.
		for _, now := range []float64{0, 50, 400} {
			if _, err := s.Schedule(gr, q, running, now); err != nil {
				t.Fatal(err)
			}
		}
		if c, r := counts(reg); c != 3 || r != 3 {
			t.Fatalf("reservations computed %d, reused %d; want 3 and 3", c, r)
		}
	})

	t.Run("partition never read is never chosen", func(t *testing.T) {
		gr, running := stripedGrid(t)
		s, f, p, _ := reservationScheduler(t, gr)
		q := job.NewQueue()
		q.Push(testJob(1, 128, 1000))
		q.Push(testJob(2, 32, 1000)) // long, but no free partition of its size
		q.Push(testJob(3, 16, 50))   // done by t=50, before the reservation
		q.Push(testJob(4, 16, 100))
		ds, err := s.Schedule(gr, q, running, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 2 || ds[0].Job.ID != 3 || ds[1].Job.ID != 4 {
			t.Fatalf("started %v, want jobs 3 and 4", ds)
		}
		if f.scratch != 4 || p.onScratch != 0 || p.onLive != 2 {
			t.Fatalf("%d scratch-grid finder queries, %d scratch-grid and %d live policy calls; want 4, 0 and 2",
				f.scratch, p.onScratch, p.onLive)
		}
	})
}
