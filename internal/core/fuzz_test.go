package core

import (
	"fmt"
	"slices"
	"testing"

	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/torus"
)

// memoGeoms are the machines the memo oracle replays on: the paper's
// torus and a mesh whose z-columns cross a word of the occupancy
// bitset.
var memoGeoms = []torus.Geometry{
	torus.NewGeometry(4, 4, 8, true),
	torus.NewGeometry(3, 5, 7, false),
}

var (
	memoPolicies = []string{"baseline", "balancing", "tiebreak"}
	memoBackfill = []BackfillMode{BackfillEASY, BackfillAggressive}
	memoFinders  = []string{"shape", "naive", "anneal"}
)

// memoConfigs is the number of scheduler configurations the first
// input byte selects among.
var memoConfigs = len(memoGeoms) * len(memoPolicies) * len(memoBackfill) * len(memoFinders)

// memoSetup is one decoded scheduler configuration.
type memoSetup struct {
	geom   torus.Geometry
	policy Policy
	mode   BackfillMode
	finder string
}

// newMemoSetup decodes configuration c (mod memoConfigs). The
// fault-aware policies read a small failure index whose failures fall
// every 25 s, on nodes spread over the machine, across the times the
// scripts reach.
func newMemoSetup(c int) memoSetup {
	c %= memoConfigs
	g := memoGeoms[c%len(memoGeoms)]
	c /= len(memoGeoms)
	pol := memoPolicies[c%len(memoPolicies)]
	c /= len(memoPolicies)
	mode := memoBackfill[c%len(memoBackfill)]
	c /= len(memoBackfill)
	finder := memoFinders[c%len(memoFinders)]

	var tr failure.Trace
	for k := 1; k <= 160; k++ {
		tr = append(tr, failure.Event{Time: 25 * float64(k), Node: (k * 37) % g.N()})
	}
	ix := failure.NewIndex(g.N(), tr)
	var p Policy = Baseline{}
	switch pol {
	case "balancing":
		p = &Balancing{Prober: &predict.Balancing{Index: ix, Confidence: 0.5}}
	case "tiebreak":
		p = &TieBreak{Oracle: predict.NewTieBreak(ix, 0.5, 1)}
	}
	return memoSetup{geom: g, policy: p, mode: mode, finder: finder}
}

// scheduler builds a scheduler of this configuration with its own
// finder, so no finder memo is shared either.
func (m memoSetup) scheduler(t *testing.T) *Scheduler {
	t.Helper()
	f, err := partition.ByName(m.finder, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(Config{Policy: m.policy, Finder: f, Backfill: m.mode})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (m memoSetup) String() string {
	return fmt.Sprintf("%s/%s/%s/%s", m.geom.Spec(), m.policy.Name(), m.mode, m.finder)
}

// Memo script ops, three bytes each: kind, a, b. An op is followed by
// a Schedule call unless its kind byte carries noCall, so a call can
// also follow several changes at once (and, say, a set of releases can
// restore the inputs of a call before the last).
const noCall = 0x80

const (
	opArrive    = iota // a job of size 1+a (rounded up), estimate 10+5b
	opArrive2          // a second arrival kind, so arrivals are common
	opRelease          // running job a releases its partition
	opExpFinish        // running job a's ExpFinish becomes now+5b-300, grid unchanged
	opStep             // now advances by 20*(a%16): running jobs may pass their ExpFinish
	opTie              // running job a's ExpFinish becomes running job b's
	opNothing          // the same inputs again
	memoOpKinds
)

// maxMemoOps caps one script so a single input cannot stall the fuzzer
// (the naive finder brute-forces every query).
const maxMemoOps = 48

// FuzzScheduleMatchesFreshScheduler is the exactness oracle for the
// scheduler's memos. The first byte picks a configuration; the rest is
// an event script driving one long-lived scheduler. After every call
// its decisions must equal those of a scheduler built fresh for that
// call on a clone of the grid and the queue. The long-lived scheduler
// carries the reservation memo, the reservation's kept candidates and
// scratch grid, and the no-fit memo from call to call; the fresh one
// has none, so any difference is a memo answering for inputs it does
// not describe. The scripts leave running jobs past their ExpFinish,
// which no golden digest covers.
func FuzzScheduleMatchesFreshScheduler(f *testing.F) {
	// Every configuration with three scripts: a full-machine head behind
	// jobs that drain at distinct and tied times; a churn of arrivals,
	// releases, ExpFinish edits and steps of now; and a machine split
	// between two jobs, one of which leaves so that backfills start and
	// read the head's reservation, after which three releases (a call
	// follows only the last) restore that call's inputs for a queue
	// whose first long job has changed.
	drain := []byte{
		opArrive, 31, 40, opArrive, 15, 90, opArrive, 7, 150, opArrive, 63, 10,
		opArrive, 127, 200, opArrive, 3, 250, opArrive, 1, 2, opNothing, 0, 0,
		opStep, 3, 0, opTie, 0, 1, opNothing, 0, 0, opStep, 9, 0,
		opArrive2, 5, 250, opStep, 15, 0, opStep, 15, 0, opRelease, 1, 0,
		opArrive, 11, 4, opNothing, 0, 0, opRelease, 0, 0, opStep, 2, 0,
	}
	churn := []byte{
		opArrive, 20, 30, opArrive, 40, 60, opArrive2, 9, 200, opArrive, 90, 120,
		opArrive, 2, 240, opArrive2, 17, 5, opExpFinish, 0, 10, opStep, 8, 0,
		opNothing, 0, 0, opExpFinish, 1, 200, opRelease, 2, 0, opArrive, 33, 70,
		opTie, 1, 0, opStep, 12, 0, opNothing, 0, 0, opArrive2, 6, 250,
		opRelease, 0, 0, opStep, 15, 0, opStep, 15, 0, opArrive, 1, 1,
	}
	restore := []byte{
		opArrive, 63, 198, opArrive, 63, 98, opArrive, 127, 18, opArrive, 7, 0,
		opArrive, 15, 255, opArrive, 31, 255, opArrive, 15, 255, opRelease, 1, 0,
		noCall | opRelease, 1, 0, noCall | opRelease, 1, 0, opRelease, 1, 0,
	}
	for c := 0; c < memoConfigs; c++ {
		for _, script := range [][]byte{drain, churn, restore} {
			f.Add(append([]byte{byte(c)}, script...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		replayMemoScript(t, newMemoSetup(int(data[0])), data[1:])
	})
}

// replayMemoScript runs one script under setup m, comparing the
// long-lived scheduler with a fresh one after every call.
func replayMemoScript(t *testing.T, m memoSetup, script []byte) {
	g := m.geom
	gr := torus.NewGrid(g)
	q := job.NewQueue()
	s := m.scheduler(t)
	var running []Running
	now := 0.0
	nextID := 1
	for step := 0; step+3 <= len(script) && step/3 < maxMemoOps; step += 3 {
		kind, a, b := int(script[step]&^noCall)%memoOpKinds, int(script[step+1]), int(script[step+2])
		switch kind {
		case opArrive, opArrive2:
			alloc, ok := g.RoundUpFeasible(1 + a%g.N())
			if !ok {
				continue
			}
			est := 10 + 5*float64(b)
			q.Push(&job.Job{ID: job.ID(nextID), Arrival: now, Size: alloc, AllocSize: alloc, Estimate: est, Actual: est})
			nextID++
		case opRelease:
			if len(running) == 0 {
				continue
			}
			i := a % len(running)
			if err := gr.Release(running[i].Part, int64(running[i].Job.ID)); err != nil {
				t.Fatal(err)
			}
			running = slices.Delete(running, i, i+1)
		case opExpFinish:
			if len(running) == 0 {
				continue
			}
			running[a%len(running)].ExpFinish = now + 5*float64(b) - 300
		case opStep:
			now += 20 * float64(a%16)
		case opTie:
			if len(running) == 0 {
				continue
			}
			running[a%len(running)].ExpFinish = running[b%len(running)].ExpFinish
		}
		if script[step]&noCall != 0 {
			continue
		}

		fgr, fq := gr.Clone(), job.NewQueue()
		for _, j := range q.Jobs() {
			fq.Push(j)
		}
		want, werr := m.scheduler(t).Schedule(fgr, fq, slices.Clone(running), now)
		got, err := s.Schedule(gr, q, running, now)
		where := fmt.Sprintf("%v, op %d (kind %d) at now=%g", m, step/3, kind, now)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, a fresh scheduler's %v", where, err, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: decided %v, a fresh scheduler %v", where, got, want)
		}
		if !slices.Equal(gr.Owners(), fgr.Owners()) || !slices.Equal(q.Jobs(), fq.Jobs()) {
			t.Fatalf("%s: grid or queue differs from a fresh scheduler's", where)
		}
		for _, d := range got {
			running = append(running, Running{Job: d.Job, Part: d.Part, Start: now, ExpFinish: now + d.Job.Estimate})
		}
	}
}
