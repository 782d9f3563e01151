// Work-count guard for the scheduling decision.
//
// Wall time measured on one host says little on another, but the work
// a run does is a property of the code: the same run on any machine
// makes the same finder queries and computes the same reservations.
// The guard pins those counts, and the MFP sweeps the decisions
// trigger, exactly for three small headline-style runs — balancing,
// tie-breaking and balancing over the anneal finder — so a change that
// adds decision work fails here on every host, and a change that
// removes some re-pins the counts and gives its reason in CHANGES.md.
package bgsched

import (
	"testing"

	"bgsched/internal/experiments"
	"bgsched/internal/telemetry"
)

func TestSchedulerWorkCounts(t *testing.T) {
	// Before the reservation memo and the partition chosen on demand,
	// the balancing run made 6 820 finder calls and computed 801
	// reservations, reusing none, over the same 811 Schedule calls.
	// Before the backfill walk passed over jobs larger than the free
	// node count without a finder call: 3 834 finder calls, over the
	// same 6 936 walk visits. The MFP sweep count is the same as before
	// the row-word kernel: 4 278. Scoring L_PF and the tie-break
	// oracle from a node set moved none of the counts.
	for _, tc := range []struct {
		name   string
		cfg    experiments.RunConfig
		finder string
		want   [6]int64 // finder calls, walk visits, MFP sweeps, reservations computed and reused, Schedule calls
	}{
		{"balancing", experiments.RunConfig{
			Workload: "SDSC", JobCount: 400, FailureNominal: 1000,
			Scheduler: experiments.SchedBalancing, Param: 0.1, Seed: 1,
		}, "shape", [6]int64{3173, 6936, 4278, 376, 425, 811}},
		{"tiebreak", experiments.RunConfig{
			Workload: "SDSC", JobCount: 400, FailureNominal: 1000,
			Scheduler: experiments.SchedTieBreak, Param: 0.5, Seed: 1,
		}, "shape", [6]int64{3688, 13089, 4945, 400, 412, 828}},
		{"balancing-anneal", experiments.RunConfig{
			Workload: "SDSC", JobCount: 400, FailureNominal: 1000,
			Scheduler: experiments.SchedBalancing, Param: 0.1, Seed: 1,
			Finder: "anneal",
		}, "anneal", [6]int64{3984, 17708, 3586, 390, 424, 824}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			tc.cfg.Telemetry = reg
			if _, err := experiments.Run(tc.cfg); err != nil {
				t.Fatal(err)
			}
			for i, c := range []struct {
				name string
				got  int64
			}{
				{"finder." + tc.finder + ".calls", reg.Counter("finder." + tc.finder + ".calls").Value()},
				{"sched.backfill.attempts", reg.Counter("sched.backfill.attempts").Value()},
				{"sched.mfp.sweeps", reg.Counter("sched.mfp.sweeps").Value()},
				{"sched.reservations.computed", reg.Counter("sched.reservations.computed").Value()},
				{"sched.reservations.reused", reg.Counter("sched.reservations.reused").Value()},
				{"Schedule calls (sched.decision.seconds count)", reg.Histogram("sched.decision.seconds").Count()},
			} {
				if c.got != tc.want[i] {
					t.Errorf("%s = %d, want %d", c.name, c.got, tc.want[i])
				}
			}
		})
	}
}
