package bgsched

import (
	"reflect"
	"testing"

	"bgsched/internal/build"
	"bgsched/internal/core"
	"bgsched/internal/experiments"
	"bgsched/internal/failure"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/sim"
)

// TestBalancingZeroConfidenceEqualsBaseline pins the degenerate-case
// equivalence the paper relies on: at confidence a = 0 the balancing
// algorithm's E_loss reduces to L_MFP, so it must make exactly the
// choices Krevat's baseline makes — the a = 0 points of Figures 3 and
// 6 are the baseline.
func TestBalancingZeroConfidenceEqualsBaseline(t *testing.T) {
	base := experiments.RunConfig{
		Workload: "SDSC", JobCount: 250, FailureNominal: 2000, Seed: 6,
	}
	cfgBase := base
	cfgBase.Scheduler = experiments.SchedBaseline
	cfgBal := base
	cfgBal.Scheduler = experiments.SchedBalancing
	cfgBal.Param = 0

	a, err := experiments.Run(cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(cfgBal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Fatalf("balancing(a=0) diverged from baseline: slowdown %.3f vs %.3f",
			b.Summary.AvgSlowdown, a.Summary.AvgSlowdown)
	}
}

// TestTieBreakZeroAccuracyEqualsBaseline: with accuracy 0 the
// tie-breaking predictor always answers "no", so tie-breaking reduces
// to the baseline's first-of-the-tied choice.
func TestTieBreakZeroAccuracyEqualsBaseline(t *testing.T) {
	base := experiments.RunConfig{
		Workload: "NASA", JobCount: 250, FailureNominal: 2000, Seed: 7,
	}
	cfgBase := base
	cfgBase.Scheduler = experiments.SchedBaseline
	cfgTB := base
	cfgTB.Scheduler = experiments.SchedTieBreak
	cfgTB.Param = 0

	a, err := experiments.Run(cfgBase)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Run(cfgTB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Fatalf("tiebreak(a=0) diverged from baseline: slowdown %.3f vs %.3f",
			b.Summary.AvgSlowdown, a.Summary.AvgSlowdown)
	}
}

// TestFaultFreeSchedulersAgree: with no failures at all, all three
// schedulers see identical information and must produce identical
// schedules.
func TestFaultFreeSchedulersAgree(t *testing.T) {
	mk := func(kind experiments.SchedulerKind, a float64) experiments.RunConfig {
		return experiments.RunConfig{
			Workload: "LLNL", JobCount: 200, FailureNominal: 0,
			Scheduler: kind, Param: a, Seed: 8,
		}
	}
	ref, err := experiments.Run(mk(experiments.SchedBaseline, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []experiments.RunConfig{
		mk(experiments.SchedBalancing, 0.7),
		mk(experiments.SchedTieBreak, 0.7),
		mk(experiments.SchedBalancingLearned, 0),
		mk(experiments.SchedBalancingLearned, 0.7),
		mk(experiments.SchedTieBreakLearned, 0),
		mk(experiments.SchedTieBreakLearned, 0.7),
	} {
		res, err := experiments.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Outcomes, res.Outcomes) {
			t.Fatalf("%s (a=%g) diverged from baseline on a fault-free machine", cfg.Scheduler, cfg.Param)
		}
	}
}

// TestTimeScalingDoublesSchedule is an oracle-free metamorphic check:
// doubling every input time — arrivals, estimates, actual runtimes and
// failure times — must exactly double every output time of the
// baseline and balancing schedulers under EASY and leave the restart
// counts unchanged. Doubling is exact in float64, and the predictor's
// window (now, now+estimate] doubles with its inputs. Tie-break is
// left out: its hash reads int64(t·1000), which the scaling changes.
func TestTimeScalingDoublesSchedule(t *testing.T) {
	run := func(sc sim.Config) sim.Result {
		t.Helper()
		s, err := sim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, kind := range []experiments.SchedulerKind{experiments.SchedBaseline, experiments.SchedBalancing} {
			cfg := experiments.RunConfig{
				Workload: "SDSC", JobCount: 400, FailureNominal: 1000,
				Scheduler: kind, Param: 0.1, Seed: seed,
			}
			sc, _, err := build.Default(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := run(sc)

			// A fresh build supplies unused job clones to scale.
			scaled, art, err := build.Default(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range scaled.Jobs {
				// sim.start floors a remaining estimate at 1 s, a
				// constant the scaling does not touch.
				if j.Estimate < 1 {
					t.Fatalf("seed %d: job %d estimate %g s is under the 1 s floor", seed, j.ID, j.Estimate)
				}
				j.Arrival, j.Estimate, j.Actual = 2*j.Arrival, 2*j.Estimate, 2*j.Actual
			}
			scaled.Failures = make(failure.Trace, len(art.Trace))
			for i, e := range art.Trace {
				scaled.Failures[i] = failure.Event{Time: 2 * e.Time, Node: e.Node}
			}
			var policy core.Policy = core.Baseline{}
			if kind == experiments.SchedBalancing {
				policy = &core.Balancing{Prober: &predict.Balancing{
					Index:      failure.NewIndex(art.Geometry.N(), scaled.Failures),
					Confidence: cfg.Param,
				}}
			}
			finder, err := partition.ByName("shape", 0)
			if err != nil {
				t.Fatal(err)
			}
			if scaled.Scheduler, err = core.NewScheduler(core.Config{
				Policy: policy, Finder: finder, Backfill: core.BackfillEASY,
			}); err != nil {
				t.Fatal(err)
			}
			got := run(scaled)

			if ref.JobKills == 0 {
				t.Fatalf("seed %d %s: no job killed, so the kill path goes unchecked", seed, kind)
			}
			if len(got.Outcomes) != len(ref.Outcomes) {
				t.Fatalf("seed %d %s: %d outcomes scaled, %d unscaled", seed, kind, len(got.Outcomes), len(ref.Outcomes))
			}
			for i, o := range ref.Outcomes {
				g := got.Outcomes[i]
				if g.ID != o.ID || g.Arrival != 2*o.Arrival || g.FirstStart != 2*o.FirstStart ||
					g.LastStart != 2*o.LastStart || g.Finish != 2*o.Finish ||
					g.LostWork != 2*o.LostWork || g.Restarts != o.Restarts {
					t.Fatalf("seed %d %s: job %d scaled to %+v, want twice %+v", seed, kind, o.ID, g, o)
				}
			}
		}
	}
}

// TestMeshMachineEndToEnd drives the full pipeline on a mesh (no
// wraparound) and on a non-default torus geometry.
func TestMeshMachineEndToEnd(t *testing.T) {
	for _, machine := range []string{"4x4x8/mesh", "8x8x8", "2x2x2"} {
		res, err := experiments.Run(experiments.RunConfig{
			Machine: machine, Workload: "NASA", JobCount: 120,
			FailureNominal: 1000, Scheduler: experiments.SchedBalancing,
			Param: 0.3, Seed: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		if res.Summary.Jobs != 120 {
			t.Fatalf("%s: finished %d of 120", machine, res.Summary.Jobs)
		}
		sum := res.Summary.Utilization + res.Summary.UnusedCapacity + res.Summary.LostCapacity
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: capacity sum %g", machine, sum)
		}
	}
	if _, err := experiments.Run(experiments.RunConfig{
		Machine: "0x1x1", Workload: "NASA", JobCount: 10,
	}); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

// TestNoPredictionPenalty reproduces the paper's motivating claim
// (Section 1): introducing failures without any fault awareness
// significantly degrades slowdown relative to the fault-free machine.
func TestNoPredictionPenalty(t *testing.T) {
	mk := func(failures int) experiments.RunConfig {
		return experiments.RunConfig{
			Workload: "SDSC", JobCount: 400, FailureNominal: failures,
			Scheduler: experiments.SchedBaseline, Seed: 9,
		}
	}
	clean, err := experiments.Run(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := experiments.Run(mk(1000))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.JobKills == 0 {
		t.Fatal("no kills at nominal 1000 failures")
	}
	if faulty.Summary.AvgSlowdown <= clean.Summary.AvgSlowdown {
		t.Fatalf("failures did not degrade slowdown: %.2f vs %.2f",
			faulty.Summary.AvgSlowdown, clean.Summary.AvgSlowdown)
	}
	if faulty.Summary.LostCapacity <= clean.Summary.LostCapacity {
		t.Fatalf("failures did not increase lost capacity: %.3f vs %.3f",
			faulty.Summary.LostCapacity, clean.Summary.LostCapacity)
	}
}
