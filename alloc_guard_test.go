// Allocation guards for the simulator's hot path.
//
// BenchmarkKernelSteadyState reports allocs/op averaged over whole
// runs, where a handful of startup allocations disappear into the
// rounding. The guard here is stricter and survives without -bench
// flags in plain `go test`: after the caches and pools are warm, a
// chunk of steady-state kernel.step dispatches must perform exactly
// zero heap allocations — the property the pooled calendar, the
// runState free list, the batched telemetry counter and the buffered
// shape finders exist to provide.
package bgsched

import (
	"context"
	"testing"

	"bgsched/internal/build"
	"bgsched/internal/core"
	"bgsched/internal/experiments"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
)

func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state run in -short mode")
	}
	for _, tc := range []struct {
		name string
		cfg  experiments.RunConfig
	}{
		{"shape-baseline", experiments.RunConfig{
			Workload: "SDSC", JobCount: 1000, FailureNominal: 1000,
			Scheduler: experiments.SchedBaseline, Seed: 1,
		}},
		// The README headline configuration: the default shape finder,
		// balancing at a=0.1 and EASY backfill.
		{"shape-balancing-easy", experiments.RunConfig{
			Workload: "SDSC", JobCount: 1000, FailureNominal: 1000,
			Scheduler: experiments.SchedBalancing, Param: 0.1, Seed: 1,
			Backfill: core.BackfillEASY,
		}},
		// Tie-break asks its oracle about every tied candidate: the
		// node set answers without a per-candidate node list.
		{"shape-tiebreak-easy", experiments.RunConfig{
			Workload: "SDSC", JobCount: 1000, FailureNominal: 1000,
			Scheduler: experiments.SchedTieBreak, Param: 0.5, Seed: 1,
			Backfill: core.BackfillEASY,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { steadyStateZeroAllocs(t, tc.cfg) })
	}
}

// steadyStateZeroAllocs runs rc once to warm its caches, then requires
// zero allocations per 32-event chunk in the second half of a fresh
// run.
func steadyStateZeroAllocs(t *testing.T, rc experiments.RunConfig) {
	rc.Telemetry = telemetry.New() // metrics on, trace and event log off
	cfg, _, err := build.Default(rc)
	if err != nil {
		t.Fatal(err)
	}

	// Full run first: learns the run's event count and warms the
	// scheduler-side buffers and MFP cache that live in cfg and carry
	// across sim.New.
	warm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	perRun := res.EventsDispatched

	// Fresh run, advanced past its warm-up: by mid-run the calendar,
	// job queue and runState pool have hit their high-water marks, so
	// everything after is pure steady state.
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	upTo := perRun / 2
	if _, err := s.RunToEvent(ctx, upTo); err != nil {
		t.Fatal(err)
	}

	const chunk = 32
	runs := int((perRun - upTo) / chunk / 2) // leave slack so the run never drains
	if runs < 4 {
		t.Fatalf("run too short for a steady-state window: %d events", perRun)
	}
	if runs > 24 {
		runs = 24
	}
	allocs := testing.AllocsPerRun(runs, func() {
		upTo += chunk
		if _, err := s.RunToEvent(ctx, upTo); err != nil {
			t.Fatal(err)
		}
	})
	if s.EventsDispatched() >= perRun {
		t.Fatalf("guard window drained the run (%d events); shrink chunk", perRun)
	}
	if allocs != 0 {
		t.Fatalf("steady-state kernel.step allocates %v per %d-event chunk, want 0", allocs, chunk)
	}
}
