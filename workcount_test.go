// Work-count guard for the scheduling decision.
//
// Wall time measured on one host says little on another, but the work
// a run does is a property of the code: the same run on any machine
// makes the same finder queries and computes the same reservations.
// The guard pins those counts, and the MFP sweeps the decisions
// trigger, exactly for one small headline-style run, so a change that
// adds decision work fails here on every host, and a change that
// removes some re-pins the counts and gives its reason in CHANGES.md.
package bgsched

import (
	"testing"

	"bgsched/internal/experiments"
	"bgsched/internal/telemetry"
)

func TestSchedulerWorkCounts(t *testing.T) {
	reg := telemetry.New()
	if _, err := experiments.Run(experiments.RunConfig{
		Workload: "SDSC", JobCount: 400, FailureNominal: 1000,
		Scheduler: experiments.SchedBalancing, Param: 0.1, Seed: 1,
		Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	// Before the reservation memo and the partition chosen on demand:
	// 6 820 finder calls, 801 reservations computed and none reused,
	// over the same 811 Schedule calls. Before the backfill walk passed
	// over jobs larger than the free node count without a finder call:
	// 3 834 finder calls, over the same 6 936 walk visits. The MFP
	// sweep count is the same as before the row-word kernel: 4 278.
	for _, c := range []struct {
		name string
		got  int64
		want int64
	}{
		{"finder.shape.calls", reg.Counter("finder.shape.calls").Value(), 3173},
		{"sched.backfill.attempts", reg.Counter("sched.backfill.attempts").Value(), 6936},
		{"sched.mfp.sweeps", reg.Counter("sched.mfp.sweeps").Value(), 4278},
		{"sched.reservations.computed", reg.Counter("sched.reservations.computed").Value(), 376},
		{"sched.reservations.reused", reg.Counter("sched.reservations.reused").Value(), 425},
		{"Schedule calls (sched.decision.seconds count)", reg.Histogram("sched.decision.seconds").Count(), 811},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
