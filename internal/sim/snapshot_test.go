package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bgsched/internal/core"
	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/snapshot"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
	"bgsched/internal/workload"
)

// faultySchedConfig is a small deterministic scenario that exercises
// every mechanism a snapshot must carry: failures (kill + requeue +
// restart), downtime holds, and a queue deep enough that restarts
// contend for space.
func faultySchedConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Geometry:  torus.BlueGeneL(),
		Scheduler: baselineScheduler(t, core.BackfillEASY),
		Jobs: []*job.Job{
			mkJob(1, 0, 64, 100),
			mkJob(2, 0, 64, 200),
			mkJob(3, 5, 64, 50),
			mkJob(4, 8, 32, 80),
		},
		Failures: failure.Trace{{Time: 30, Node: 0}, {Time: 60, Node: 70}},
		Downtime: 40,
	}
}

// splitAt runs cfg to the event boundary at, snapshots, restores into a
// fresh simulator and finishes the run there. Writers attached to cfg
// see prefix + continuation.
func splitAt(t *testing.T, cfg Config, at int64) Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.RunToEvent(context.Background(), at)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatalf("run completed before event %d", at)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewFromSnapshot(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSnapshotSplitRunMatchesFullRun is the package-level equivalence
// check: for every pausable event boundary of the scenario, snapshot +
// restore + continue must reproduce the uninterrupted run — same
// results, byte-identical event log and causal trace.
func TestSnapshotSplitRunMatchesFullRun(t *testing.T) {
	full := faultySchedConfig(t)
	var fullLog, fullTrace bytes.Buffer
	full.EventLog = &fullLog
	full.Trace = trace.New(&fullTrace, trace.Options{})
	full.RecordTimeline = true
	fullRes := runSim(t, full)
	if fullRes.JobKills == 0 {
		t.Fatal("scenario delivered no kills; equivalence check would be toothless")
	}

	for at := int64(1); at < fullRes.EventsDispatched; at++ {
		cfg := faultySchedConfig(t)
		var splitLog, splitTrace bytes.Buffer
		cfg.EventLog = &splitLog
		cfg.Trace = trace.New(&splitTrace, trace.Options{})
		cfg.RecordTimeline = true
		res := splitAt(t, cfg, at)
		if !reflect.DeepEqual(res, fullRes) {
			t.Fatalf("split at %d: results diverged:\n%+v\nvs\n%+v", at, res, fullRes)
		}
		if splitLog.String() != fullLog.String() {
			t.Fatalf("split at %d: event log diverged", at)
		}
		if splitTrace.String() != fullTrace.String() {
			t.Fatalf("split at %d: trace diverged", at)
		}
	}
}

// TestSnapshotPreservesCauseChains pins the causal-trace guarantee the
// byte-identity above implies, explicitly: a kill caused by a failure,
// the requeue caused by the kill, and — across the snapshot boundary —
// a restart whose cause is a requeue recorded before the snapshot was
// taken. The last link only holds if JobProgress.LastSeq survives the
// round trip.
func TestSnapshotPreservesCauseChains(t *testing.T) {
	full := faultySchedConfig(t)
	var buf bytes.Buffer
	full.Trace = trace.New(&buf, trace.Options{})
	fullRes := runSim(t, full)

	recs, err := trace.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bySeq := map[uint64]trace.Record{}
	for _, r := range recs {
		bySeq[r.Seq] = r
	}
	var kills, requeues []trace.Record
	for _, r := range recs {
		switch r.Name {
		case "kill":
			if cause, ok := bySeq[r.Cause]; !ok || cause.Name != "failure" {
				t.Fatalf("kill %d caused by %+v, want a failure record", r.Seq, cause)
			}
			kills = append(kills, r)
		case "requeue":
			if cause, ok := bySeq[r.Cause]; !ok || cause.Name != "kill" {
				t.Fatalf("requeue %d caused by %+v, want a kill record", r.Seq, cause)
			}
			requeues = append(requeues, r)
		}
	}
	if len(kills) == 0 || len(requeues) == 0 {
		t.Fatal("scenario produced no kill/requeue chain")
	}

	// Find a split where the requeue lands in the prefix and the
	// restart it causes lands in the continuation.
	crossed := false
	for at := int64(1); at < fullRes.EventsDispatched && !crossed; at++ {
		cfg := faultySchedConfig(t)
		var splitBuf bytes.Buffer
		cfg.Trace = trace.New(&splitBuf, trace.Options{})
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if done, err := s.RunToEvent(context.Background(), at); err != nil || done {
			t.Fatalf("split at %d: done=%v err=%v", at, done, err)
		}
		st, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewFromSnapshot(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Run(); err != nil {
			t.Fatal(err)
		}
		recs, err := trace.ReadLog(&splitBuf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			// A restart's allocate record chains to the requeue that put
			// the job back in the queue (the start then chains to the
			// allocate).
			if r.Name != "allocate" || r.Cause == 0 {
				continue
			}
			cause, ok := bySeq[r.Cause]
			if ok && cause.Name == "requeue" && cause.Seq <= st.TraceSeq && r.Seq > st.TraceSeq {
				crossed = true
			}
		}
	}
	if !crossed {
		t.Fatal("no split placed a requeue before the boundary and its restart after it")
	}
}

// TestSnapshotMigrationCauseChain extends the chain check to the
// migration pass: a migrate record's cause must be the finish record
// that triggered the compaction, and migrations must replay identically
// through a snapshot boundary.
func TestSnapshotMigrationCauseChain(t *testing.T) {
	log, err := Synthesize(t)
	if err != nil {
		t.Fatal(err)
	}
	mkCfg := func() Config {
		sched, err := core.NewScheduler(core.Config{Policy: core.Baseline{}, Backfill: core.BackfillEASY, Migration: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := log.ToJobs(torus.BlueGeneL(), workload.ToJobsConfig{LoadScale: 1, ExactEstimates: true})
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Geometry:      torus.BlueGeneL(),
			Scheduler:     sched,
			Jobs:          jobs,
			MigrationCost: 15,
		}
	}
	cfg := mkCfg()
	var buf bytes.Buffer
	cfg.Trace = trace.New(&buf, trace.Options{})
	fullRes := runSim(t, cfg)
	if fullRes.Migrations == 0 {
		t.Skip("workload triggered no migrations")
	}
	fullTrace := buf.String()
	recs, err := trace.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bySeq := map[uint64]trace.Record{}
	for _, r := range recs {
		bySeq[r.Seq] = r
	}
	sawMigrate := false
	for _, r := range recs {
		if r.Name != "migrate" {
			continue
		}
		sawMigrate = true
		if cause, ok := bySeq[r.Cause]; !ok || cause.Name != "finish" {
			t.Fatalf("migrate %d caused by %+v, want a finish record", r.Seq, cause)
		}
	}
	if !sawMigrate {
		t.Fatal("migrations counted but no migrate trace records found")
	}

	// A sample of split points is enough here — the exhaustive sweep runs
	// on the smaller failure scenario above.
	for i := 1; i <= 8; i++ {
		at := fullRes.EventsDispatched * int64(i) / 9
		if at < 1 {
			continue
		}
		cfg2 := mkCfg()
		var splitBuf bytes.Buffer
		cfg2.Trace = trace.New(&splitBuf, trace.Options{})
		res := splitAt(t, cfg2, at)
		if res.Migrations != fullRes.Migrations {
			t.Fatalf("split at %d: %d migrations, full run had %d", at, res.Migrations, fullRes.Migrations)
		}
		if splitBuf.String() != fullTrace {
			t.Fatalf("split at %d: migration trace diverged", at)
		}
	}
}

// TestSubsystemSnapshotHooks table-tests the snapshot state contract
// of the mechanisms that keep state: who serializes state, who doesn't,
// and how payloads are treated on restore.
func TestSubsystemSnapshotHooks(t *testing.T) {
	cfg := faultySchedConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		state   func() (json.RawMessage, error)
		restore func(json.RawMessage) error
	}{
		{"checkpoint", s.checkpointState, s.restoreCheckpoint},
		{"contention", s.contentionState, s.restoreContention},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.state()
			if err != nil {
				t.Fatal(err)
			}
			// Neither mechanism is configured in this scenario: nothing
			// to keep.
			if data != nil {
				t.Fatalf("disabled %s mechanism serialized %s", tc.name, data)
			}
			// A nil payload must always be accepted.
			if err := tc.restore(nil); err != nil {
				t.Fatal(err)
			}
			// A leftover payload for a mechanism configured without state
			// (the branch-swap case) is dropped, not an error.
			if err := tc.restore([]byte(`[{"Job":1,"Time":3}]`)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRenderTimelineTable drives the strip-chart renderer through its
// input space: errors, defaults, and the busy-fraction extremes.
func TestRenderTimelineTable(t *testing.T) {
	line := []TimelinePoint{
		{Time: 0, FreeNodes: 0, QueueJobs: 3, Running: 2},
		{Time: 50, FreeNodes: 64, QueueJobs: 1, Running: 1},
		{Time: 100, FreeNodes: 128, QueueJobs: 0, Running: 0},
	}
	cases := []struct {
		name     string
		timeline []TimelinePoint
		n        int
		buckets  int
		wantErr  bool
		want     []string
	}{
		{name: "empty timeline", timeline: nil, n: 128, buckets: 10, wantErr: true},
		{name: "bad machine size", timeline: line, n: 0, buckets: 10, wantErr: true},
		{name: "two buckets", timeline: line, n: 128, buckets: 2,
			want: []string{"busy nodes", "100%", "q=3"}},
		{name: "defaulted buckets", timeline: line, n: 128, buckets: 0,
			want: []string{"busy nodes"}},
		{name: "single point", timeline: line[:1], n: 128, buckets: 3,
			want: []string{"100%"}},
		{name: "idle machine", timeline: []TimelinePoint{{Time: 0, FreeNodes: 128}, {Time: 10, FreeNodes: 128}},
			n: 128, buckets: 2, want: []string{"0%", "q=0"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := RenderTimeline(&buf, tc.timeline, tc.n, tc.buckets)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Fatalf("output missing %q:\n%s", w, out)
				}
			}
			if tc.buckets == 0 {
				// Header plus the 40 default rows.
				if got := strings.Count(out, "\n"); got != 41 {
					t.Fatalf("default bucket count rendered %d lines, want 41", got)
				}
			}
		})
	}
}

// TestSnapshotRefusesTamperedState spot-checks NewFromSnapshot's
// structural defenses at the simulator level (the snapshot package
// fuzzes the codec itself): world and state damage must be rejected,
// never absorbed into a silently-wrong simulation.
func TestSnapshotRefusesTamperedState(t *testing.T) {
	cfg := faultySchedConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := s.RunToEvent(context.Background(), 6); err != nil || done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	capture := func() *snapshot.State {
		st, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	cases := []struct {
		name   string
		mutate func(st *snapshot.State)
		cfg    func() Config
	}{
		{name: "unknown subsystem", mutate: func(st *snapshot.State) {
			st.Subsystems = append(st.Subsystems, snapshot.SubsystemState{Name: "quantum", Data: []byte(`{}`)})
		}},
		{name: "phantom owner", mutate: func(st *snapshot.State) {
			st.Owners[0] = 999 // not a known job, not down, not free
		}},
		{name: "pending drift", mutate: func(st *snapshot.State) {
			st.Counters.Pending++
		}},
		{name: "world mismatch", cfg: func() Config {
			c := faultySchedConfig(t)
			c.Jobs[0].Actual += 1 // same count, different world hash
			return c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			st := capture()
			target := cfg
			if tc.cfg != nil {
				target = tc.cfg()
			}
			if tc.mutate != nil {
				tc.mutate(st)
			}
			if _, err := NewFromSnapshot(target, st); err == nil {
				t.Fatal("tampered snapshot accepted")
			}
		})
	}
}
