package sim

import (
	"context"
	"testing"

	"bgsched/internal/core"
	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// TestTelemetryCounterIdentities runs a failure-heavy simulation with a
// registry attached and asserts the accounting identities that must
// hold at end of run:
//
//	starts   = finishes + kills   (every dispatched run either
//	                               completes or is killed)
//	finishes = arrivals = len(jobs)
//	kills    = restarts = Result.JobKills
//
// plus agreement between the counters and the Result fields the
// simulator already reports.
func TestTelemetryCounterIdentities(t *testing.T) {
	reg := telemetry.New()
	sched, err := core.NewScheduler(core.Config{
		Policy: core.Baseline{}, Backfill: core.BackfillEASY, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		mkJob(1, 0, 64, 200),
		mkJob(2, 0, 64, 200),
		mkJob(3, 10, 128, 100),
		mkJob(4, 20, 8, 50),
	}
	cfg := Config{
		Geometry:  torus.BlueGeneL(),
		Scheduler: sched,
		Jobs:      jobs,
		// Repeated failures on nodes 0 and 64 kill running jobs and
		// force restarts.
		Failures: failure.Trace{
			{Time: 50, Node: 0}, {Time: 60, Node: 64},
			{Time: 260, Node: 0}, {Time: 600, Node: 3},
		},
		Telemetry: reg,
	}
	res := runSim(t, cfg)

	s := reg.Snapshot()
	c := func(name string) int64 { return s.Counters[name] }

	if got, want := c("sim.arrivals"), int64(len(jobs)); got != want {
		t.Errorf("arrivals = %d, want %d", got, want)
	}
	if got, want := c("sim.finishes"), int64(len(jobs)); got != want {
		t.Errorf("finishes = %d, want %d", got, want)
	}
	if c("sim.starts") != c("sim.finishes")+c("sim.kills") {
		t.Errorf("starts (%d) != finishes (%d) + kills (%d)",
			c("sim.starts"), c("sim.finishes"), c("sim.kills"))
	}
	if c("sim.kills") != c("sim.restarts") {
		t.Errorf("kills (%d) != restarts (%d)", c("sim.kills"), c("sim.restarts"))
	}
	if got, want := c("sim.kills"), int64(res.JobKills); got != want {
		t.Errorf("kills counter = %d, Result.JobKills = %d", got, want)
	}
	if got, want := c("sim.failures"), int64(res.FailureEvents); got != want {
		t.Errorf("failures counter = %d, Result.FailureEvents = %d", got, want)
	}
	if c("sim.kills") == 0 {
		t.Error("failure trace produced no kills; identity test is vacuous")
	}
	if got, want := c("sim.events"), res.EventsDispatched; got != want || got == 0 {
		t.Errorf("events counter = %d, Result.EventsDispatched = %d", got, want)
	}
	// sim.events is published as each RunToEvent call returns: a run
	// paused midway has counted exactly the events it dispatched, and
	// its continuation adds the rest.
	pcfg := faultySchedConfig(t)
	preg := telemetry.New()
	pcfg.Telemetry = preg
	paused, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := paused.RunToEvent(context.Background(), 5); err != nil || done {
		t.Fatalf("pause at 5: done=%v err=%v", done, err)
	}
	if got := preg.Snapshot().Counters["sim.events"]; got != 5 {
		t.Errorf("paused events counter = %d, want 5", got)
	}
	pres, err := paused.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := preg.Snapshot().Counters["sim.events"]; got != pres.EventsDispatched {
		t.Errorf("continued events counter = %d, want %d", got, pres.EventsDispatched)
	}

	// The machine drains at end of run: all nodes free, queue empty,
	// nothing running.
	if got := s.Gauges["sim.free_nodes"]; got != 128 {
		t.Errorf("final free_nodes gauge = %g, want 128", got)
	}
	if got := s.Gauges["sim.queue_depth"]; got != 0 {
		t.Errorf("final queue_depth gauge = %g, want 0", got)
	}
	if got := s.Gauges["sim.running_jobs"]; got != 0 {
		t.Errorf("final running_jobs gauge = %g, want 0", got)
	}

	// Per-job distributions: one sample per finished job, and the
	// histogram's wait matches the summary's average within bucket
	// resolution (±10%).
	wait := s.Histograms["sim.job.wait_seconds"]
	if wait.Count != int64(len(jobs)) {
		t.Errorf("wait histogram has %d samples, want %d", wait.Count, len(jobs))
	}
	avgFromHist := wait.Sum / float64(wait.Count)
	if res.Summary.AvgWait > 0 {
		if rel := (avgFromHist - res.Summary.AvgWait) / res.Summary.AvgWait; rel > 1e-9 || rel < -1e-9 {
			t.Errorf("wait histogram mean %.3f != summary avg wait %.3f", avgFromHist, res.Summary.AvgWait)
		}
	}
	if s.Histograms["sim.job.bounded_slowdown"].Count != int64(len(jobs)) {
		t.Error("slowdown histogram incomplete")
	}

	// Scheduler-side instruments flow into the same registry.
	if s.Counters["sched.starts.fcfs"]+s.Counters["sched.starts.backfill"] != c("sim.starts") {
		t.Errorf("scheduler starts (%d fcfs + %d backfill) != sim starts (%d)",
			s.Counters["sched.starts.fcfs"], s.Counters["sched.starts.backfill"], c("sim.starts"))
	}
	if _, ok := s.Histograms["sched.decision.seconds"]; !ok {
		t.Error("no scheduler decision timer samples")
	}
}

// TestTelemetryDisabled: a nil registry must leave behaviour untouched
// (the instrument handles are all nil and every record is a no-op).
func TestTelemetryDisabled(t *testing.T) {
	res := runSim(t, Config{
		Geometry:  torus.BlueGeneL(),
		Scheduler: baselineScheduler(t, core.BackfillEASY),
		Jobs:      []*job.Job{mkJob(1, 0, 8, 10)},
	})
	if res.Summary.Jobs != 1 {
		t.Fatal("run failed without telemetry")
	}
}
