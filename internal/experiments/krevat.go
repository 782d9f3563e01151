package experiments

import (
	"fmt"

	"bgsched/internal/core"
)

// KrevatVariants are the four scheduler configurations of Krevat,
// Castaños and Moreira's BG/L scheduling study, which this paper's
// Section 5.1 builds on: plain FCFS, FCFS with backfilling, FCFS with
// migration, and FCFS with both.
var KrevatVariants = []struct {
	Name      string
	Backfill  core.BackfillMode
	Strict    bool
	Migration bool
}{
	{"fcfs", core.BackfillNone, true, false},
	{"fcfs+backfill", core.BackfillEASY, false, false},
	{"fcfs+migration", core.BackfillNone, true, true},
	{"fcfs+backfill+migration", core.BackfillEASY, false, true},
}

// KrevatTable reproduces the baseline study's comparison on this
// repository's substrate: for each scheduler variant it reports the
// aggregated bounded slowdown, response time, wait time, and
// utilization over the configured workload, fault-free (the baseline
// study predates the fault model).
func KrevatTable(eng *Engine, opt Options, workload string, loadScale float64) (*Table, error) {
	opt = opt.normalize()
	t := &Table{
		ID:     "krevat",
		Title:  fmt.Sprintf("Krevat scheduler variants (%s, c=%.1f, fault-free)", workload, loadScale),
		XLabel: "variant",
	}
	n := len(KrevatVariants)
	for i := range KrevatVariants {
		t.X = append(t.X, float64(i))
	}
	t.allocTelemetry(n, opt)
	t.Series = []Series{
		{Name: "slowdown", Y: nanSlots(n)},
		{Name: "response-s", Y: nanSlots(n)},
		{Name: "wait-s", Y: nanSlots(n)},
		{Name: "utilized", Y: nanSlots(n)},
	}
	var pts []point
	for i, v := range KrevatVariants {
		cfg := RunConfig{
			Workload: workload, JobCount: opt.JobCount, LoadScale: loadScale,
			Scheduler: SchedBaseline, Seed: opt.Seed,
			Backfill: v.Backfill, BackfillStrict: v.Strict, Migration: v.Migration,
		}
		// All four series come from the same runs, so the per-variant
		// snapshot goes on the table, like the capacity figures.
		pts = append(pts, sweepPoint(opt, v.Name, cfg, snapSlot(t.Telemetry, i),
			rowStats(t, i, MetricSlowdown, MetricResponse, MetricWait, MetricUtilized)...))
	}
	// The partially-filled table rides along with any error, so an
	// interrupted run still surfaces the variants that completed.
	return t, eng.runPoints("krevat", pts)
}
