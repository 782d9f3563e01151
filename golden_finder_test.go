package bgsched

import (
	"bytes"
	"strings"
	"testing"

	"bgsched/internal/core"
	"bgsched/internal/failure"
	"bgsched/internal/partition"
	"bgsched/internal/sim"
	"bgsched/internal/torus"
	"bgsched/internal/workload"
)

// goldenSWF is a small deterministic workload in standard workload
// format: 18-field records on a 128-processor machine, sizes chosen so
// the schedule exercises queueing, backfilling and partition churn.
const goldenSWF = `; Golden finder-regression workload
;MaxProcs: 128
  1     0 -1  3600   8 -1 -1   8  3600 -1 1 1 1 1 1 1 -1 -1
  2   120 -1  7200  64 -1 -1  64  7200 -1 1 1 1 1 1 1 -1 -1
  3   240 -1  1800  16 -1 -1  16  1800 -1 1 1 1 1 1 1 -1 -1
  4   400 -1 10800 128 -1 -1 128 10800 -1 1 1 1 1 1 1 -1 -1
  5   500 -1   900   4 -1 -1   4   900 -1 1 1 1 1 1 1 -1 -1
  6   650 -1  5400  32 -1 -1  32  5400 -1 1 1 1 1 1 1 -1 -1
  7   800 -1  2700   8 -1 -1   8  2700 -1 1 1 1 1 1 1 -1 -1
  8  1000 -1  1200  16 -1 -1  16  1200 -1 1 1 1 1 1 1 -1 -1
  9  1300 -1  7200   2 -1 -1   2  7200 -1 1 1 1 1 1 1 -1 -1
 10  1500 -1  3600  64 -1 -1  64  3600 -1 1 1 1 1 1 1 -1 -1
 11  1800 -1   600   1 -1 -1   1   600 -1 1 1 1 1 1 1 -1 -1
 12  2100 -1  4500  32 -1 -1  32  4500 -1 1 1 1 1 1 1 -1 -1
 13  2500 -1  1800   8 -1 -1   8  1800 -1 1 1 1 1 1 1 -1 -1
 14  3000 -1  2400  16 -1 -1  16  2400 -1 1 1 1 1 1 1 -1 -1
 15  3600 -1   900   4 -1 -1   4   900 -1 1 1 1 1 1 1 -1 -1
`

// goldenTrace is a hand-built failure trace that kills running work:
// spread over the schedule's busy window, hitting nodes across the
// machine.
func goldenTrace() failure.Trace {
	tr := failure.Trace{
		{Time: 1900, Node: 5},
		{Time: 3700, Node: 77},
		{Time: 5200, Node: 14},
		{Time: 6400, Node: 100},
		{Time: 8000, Node: 42},
		{Time: 9500, Node: 3},
	}
	tr.Sort()
	return tr
}

// goldenEventLog replays the golden workload and failure trace with the
// named finder and returns the full JSONL event log. Jobs are rebuilt
// per run because the simulator mutates them.
func goldenEventLog(t *testing.T, finderName string) string {
	t.Helper()
	g := torus.BlueGeneL()
	log, err := workload.ReadSWF(strings.NewReader(goldenSWF), "golden")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := log.ToJobs(g, workload.ToJobsConfig{LoadScale: 1, ExactEstimates: true})
	if err != nil {
		t.Fatal(err)
	}
	finder, err := partition.ByName(finderName, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(core.Config{
		Policy:   core.Baseline{},
		Finder:   finder,
		Backfill: core.BackfillEASY,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	s, err := sim.New(sim.Config{
		Geometry:        g,
		Scheduler:       sched,
		Jobs:            jobs,
		Failures:        goldenTrace(),
		CheckInvariants: true,
		EventLog:        &events,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != 15 {
		t.Fatalf("finder %s: finished %d of 15 jobs", finderName, res.Summary.Jobs)
	}
	if res.JobKills == 0 {
		t.Fatalf("finder %s: the golden trace killed nothing — the regression would not cover failure paths", finderName)
	}
	return events.String()
}

// TestGoldenEventLogIdenticalAcrossFinders is the end-to-end finder
// regression: the same deterministic SWF workload and failure trace
// must yield byte-identical simulation event logs whichever partition
// search algorithm the scheduler uses — the finders differ in cost,
// never in decisions. A divergence here means a finder returned a
// different candidate set somewhere in the run.
func TestGoldenEventLogIdenticalAcrossFinders(t *testing.T) {
	ref := goldenEventLog(t, "shape")
	if !strings.Contains(ref, `"kind":"start"`) || !strings.Contains(ref, `"kind":"kill"`) {
		t.Fatalf("golden log is missing expected event kinds:\n%.600s", ref)
	}
	for _, finder := range []string{"naive", "pop"} {
		got := goldenEventLog(t, finder)
		if got != ref {
			t.Errorf("finder %s produced a different event log (%d vs %d bytes)",
				finder, len(got), len(ref))
		}
	}
}

// TestGoldenEventLogIsDeterministic guards the regression's own
// foundation: replaying the same configuration twice must be
// byte-identical, otherwise the cross-finder comparison above could
// never fail meaningfully.
func TestGoldenEventLogIsDeterministic(t *testing.T) {
	a := goldenEventLog(t, "anneal")
	b := goldenEventLog(t, "anneal")
	if a != b {
		t.Fatal("same configuration replayed twice produced different event logs")
	}
}
