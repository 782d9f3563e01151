// Benchmarks regenerating the paper's evaluation artefacts.
//
// One benchmark per figure of the evaluation section (Figures 3-10)
// drives the same sweep as cmd/bgsweep at a reduced job count, plus
// benchmarks for the partition-finder algorithms of Section 5 /
// Appendix 9 and ablations of the design choices called out in
// DESIGN.md (backfill mode, migration, P_f combiner).
//
// Figure benchmarks report three custom metrics alongside timing:
// the key series endpoints, so `go test -bench=.` doubles as a quick
// shape check. Full-scale tables come from `go run ./cmd/bgsweep`.
package bgsched

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bgsched/internal/build"
	"bgsched/internal/contention"
	"bgsched/internal/core"
	"bgsched/internal/experiments"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// benchJobs is the per-run workload length used by the figure
// benchmarks. Small enough that the full `go test -bench=.` sweep
// completes in minutes; large enough for the paper's qualitative
// shapes to be visible.
const benchJobs = 300

func benchFigure(b *testing.B, id string) {
	spec, err := experiments.SpecByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := experiments.Options{JobCount: benchJobs, Seed: 1, Replications: 1}
	for i := 0; i < b.N; i++ {
		tables, err := spec.Run(nil, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for ti, t := range tables {
				for _, s := range t.Series {
					if len(s.Y) == 0 {
						b.Fatalf("%s: empty series %q", id, s.Name)
					}
					name := fmt.Sprintf("t%d[%s]last", ti, strings.ReplaceAll(s.Name, " ", ""))
					b.ReportMetric(s.Y[len(s.Y)-1], name)
				}
			}
		}
	}
}

func BenchmarkFig3(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchFigure(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkSingleRun measures the simulator itself: one SDSC run per
// scheduler kind at the bench scale.
func BenchmarkSingleRun(b *testing.B) {
	for _, kind := range []experiments.SchedulerKind{
		experiments.SchedBaseline, experiments.SchedBalancing, experiments.SchedTieBreak,
	} {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs,
					FailureNominal: 1000, Scheduler: kind, Param: 0.5, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary.Jobs != benchJobs {
					b.Fatalf("finished %d jobs", res.Summary.Jobs)
				}
			}
		})
	}
}

// BenchmarkPartitionFinders compares the three free-partition search
// algorithms (Section 5.1 and Appendix 9): naive exhaustive, POP-style
// projection, and the paper's shape-enumeration finder.
func BenchmarkPartitionFinders(b *testing.B) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	rng := rand.New(rand.NewSource(7))
	owner := int64(1)
	for id := 0; id < g.N(); id++ {
		if rng.Float64() < 0.3 {
			c := g.CoordOf(id)
			if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, owner); err != nil {
				b.Fatal(err)
			}
			owner++
		}
	}
	for _, f := range []partition.Finder{partition.NaiveFinder{}, partition.POPFinder{}, partition.ShapeFinder{}} {
		for _, size := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/size%d", f.Name(), size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f.FreeOfSize(gr, size)
				}
			})
		}
	}
	b.Run("maxfree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.MaxFree(gr)
		}
	})
}

// halfFullGrid builds the annealing benchmark's state: the paper's
// 4x4x8 torus at exactly 50% occupancy (seeded, deterministic).
func halfFullGrid(b *testing.B) *torus.Grid {
	b.Helper()
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	rng := rand.New(rand.NewSource(7))
	owner := int64(1)
	for id := 0; id < g.N(); id++ {
		if rng.Float64() < 0.5 {
			p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(p, owner); err != nil {
				b.Fatal(err)
			}
			owner++
		}
	}
	// Top up to exactly half occupancy: the random draw lands near 50%.
	for id := 0; id < g.N() && 2*gr.FreeCount() > g.N(); id++ {
		if gr.NodeFree(id) {
			p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(p, owner); err != nil {
				b.Fatal(err)
			}
			owner++
		}
	}
	return gr
}

// BenchmarkSchedulerDecision measures one Schedule() call — the
// telemetry subsystem's sched.decision.seconds timer wraps exactly
// this — on a representative mid-load state: a one-third-full machine,
// running jobs holding EASY reservations, and a queue whose head is
// blocked so the scheduler walks the whole backfill window. State is
// rebuilt outside the timer each iteration because Schedule mutates
// the grid and queue.
func BenchmarkSchedulerDecision(b *testing.B) {
	g := torus.BlueGeneL()
	s, err := core.NewScheduler(core.Config{Policy: core.Baseline{}, Backfill: core.BackfillEASY})
	if err != nil {
		b.Fatal(err)
	}
	mk := func(id int64, size, alloc int, est float64) *job.Job {
		return &job.Job{ID: job.ID(id), Size: size, AllocSize: alloc, Estimate: est, Actual: est}
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gr := torus.NewGrid(g)
		rng := rand.New(rand.NewSource(7))
		var running []core.Running
		for id := 0; id < g.N(); id++ {
			if rng.Float64() < 0.3 {
				p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
				owner := int64(1000 + id)
				if err := gr.Allocate(p, owner); err != nil {
					b.Fatal(err)
				}
				running = append(running, core.Running{
					Job:  mk(owner, 1, 1, 3600),
					Part: p, ExpFinish: 600 + float64(id),
				})
			}
		}
		q := job.NewQueue()
		q.Push(mk(1, 128, 128, 3600)) // blocked head forces a reservation
		for j := int64(2); j <= 9; j++ {
			q.Push(mk(j, 8, 8, 1800)) // backfill candidates
		}
		b.StartTimer()
		if _, err := s.Schedule(gr, q, running, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinderAlgorithms measures FreeOfSize for each partition
// finder across machine scales — the per-call cost behind the
// finder.<algo>.seconds telemetry timers. The naive finder is skipped
// beyond the scheduling view (8x8x8 at O(M^9) is minutes per call).
func BenchmarkFinderAlgorithms(b *testing.B) {
	for _, spec := range []string{"4x4x8", "8x8x8"} {
		g, err := torus.Parse(spec)
		if err != nil {
			b.Fatal(err)
		}
		gr := torus.NewGrid(g)
		rng := rand.New(rand.NewSource(7))
		owner := int64(1)
		for id := 0; id < g.N(); id++ {
			if rng.Float64() < 0.3 {
				p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
				if err := gr.Allocate(p, owner); err != nil {
					b.Fatal(err)
				}
				owner++
			}
		}
		for _, f := range []partition.Finder{partition.NaiveFinder{}, partition.POPFinder{}, partition.ShapeFinder{}} {
			if spec != "4x4x8" && f.Name() == "naive" {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", spec, f.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f.FreeOfSize(gr, 8)
				}
			})
		}
	}
}

// BenchmarkAblationBackfill quantifies the backfilling design choice:
// strict FCFS vs aggressive vs EASY reservations.
func BenchmarkAblationBackfill(b *testing.B) {
	modes := []struct {
		name   string
		mode   core.BackfillMode
		strict bool
	}{
		{"none", core.BackfillNone, true},
		{"aggressive", core.BackfillAggressive, false},
		{"easy", core.BackfillEASY, false},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
					Scheduler: experiments.SchedBalancing, Param: 0.1,
					Backfill: m.mode, BackfillStrict: m.strict, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				slowdown = res.Summary.AvgSlowdown
			}
			b.ReportMetric(slowdown, "avg-slowdown")
		})
	}
}

// BenchmarkAblationMigration quantifies the migration (compaction)
// pass.
func BenchmarkAblationMigration(b *testing.B) {
	for _, mig := range []bool{false, true} {
		b.Run(fmt.Sprintf("migration=%v", mig), func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
					Scheduler: experiments.SchedBalancing, Param: 0.1,
					Migration: mig, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				slowdown = res.Summary.AvgSlowdown
			}
			b.ReportMetric(slowdown, "avg-slowdown")
		})
	}
}

// BenchmarkAblationEstimates measures how inexact user estimates
// (requested time = actual * U[1, f]) affect the fault-aware
// scheduler: looser estimates stretch both EASY reservations and the
// predictors' query windows.
func BenchmarkAblationEstimates(b *testing.B) {
	for _, f := range []float64{1, 2, 5} {
		b.Run(fmt.Sprintf("factor=%g", f), func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
					Scheduler: experiments.SchedBalancing, Param: 0.1,
					EstimateFactor: f, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				slowdown = res.Summary.AvgSlowdown
			}
			b.ReportMetric(slowdown, "avg-slowdown")
		})
	}
}

// BenchmarkAblationMigrationCost contrasts free migration (the paper's
// model) with costed checkpoint-and-restart moves.
func BenchmarkAblationMigrationCost(b *testing.B) {
	for _, cost := range []float64{0, 300} {
		b.Run(fmt.Sprintf("cost=%gs", cost), func(b *testing.B) {
			var resp float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
					Scheduler: experiments.SchedBalancing, Param: 0.1,
					Migration: true, MigrationCost: cost, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				resp = res.Summary.AvgResponse
			}
			b.ReportMetric(resp, "avg-response-s")
		})
	}
}

// BenchmarkAblationCombiner compares the two P_f formulas the paper
// gives: the Section 5.2.1 independence product and the Section 4.1
// max.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, maxComb := range []bool{false, true} {
		name := "independent"
		if maxComb {
			name = "max"
		}
		b.Run(name, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
					Scheduler: experiments.SchedBalancing, Param: 0.5,
					CombineMax: maxComb, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				slowdown = res.Summary.AvgSlowdown
			}
			b.ReportMetric(slowdown, "avg-slowdown")
		})
	}
}

// BenchmarkAblationPredictor compares the paper's log-oracle-with-knob
// predictors against the history-trained statistical predictor
// (predict.Learned), on both fault-aware algorithms.
func BenchmarkAblationPredictor(b *testing.B) {
	variants := []struct {
		name string
		kind experiments.SchedulerKind
		a    float64
	}{
		{"baseline", experiments.SchedBaseline, 0},
		{"balancing-knob-0.5", experiments.SchedBalancing, 0.5},
		{"balancing-learned", experiments.SchedBalancingLearned, 0},
		{"tiebreak-knob-0.5", experiments.SchedTieBreak, 0.5},
		{"tiebreak-learned", experiments.SchedTieBreakLearned, 0},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var kills float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
					Scheduler: v.kind, Param: v.a, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				kills = float64(res.JobKills)
			}
			b.ReportMetric(kills, "job-kills")
		})
	}
}

// BenchmarkAblationCheckpointing compares the Section 8 checkpointing
// extension variants under a heavy failure load.
func BenchmarkAblationCheckpointing(b *testing.B) {
	variants := []struct {
		name string
		mut  func(*experiments.RunConfig)
	}{
		{"off", func(*experiments.RunConfig) {}},
		{"periodic", func(c *experiments.RunConfig) {
			c.CheckpointInterval = 1800
			c.CheckpointOverhead = 30
			c.CheckpointRestart = 30
		}},
		{"predictive", func(c *experiments.RunConfig) {
			c.CheckpointPredictive = true
			c.CheckpointInterval = 3600
			c.CheckpointOverhead = 30
			c.CheckpointRestart = 30
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var lost float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.RunConfig{
					Workload: "SDSC", JobCount: benchJobs, FailureNominal: 2000,
					Scheduler: experiments.SchedBalancing, Param: 0.5, Seed: 1,
				}
				v.mut(&cfg)
				res, err := experiments.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lost = res.Summary.LostWorkNodeSec
			}
			b.ReportMetric(lost/1e6, "lost-Mnode-s")
		})
	}
}

// BenchmarkKernelSteadyState measures the simulator's steady-state
// event loop: one op is one dispatched calendar event of an SDSC run
// under the baseline scheduler with the shape finder, telemetry on and
// tracing off — the exact hot path every sweep, tournament and branch
// grid grinds through. Simulator construction happens outside the
// timer (a fresh run is set up whenever the previous one drains), so
// ns/op and allocs/op describe the kernel.step path itself; the
// events/sec metric is the run-rate headline the README quotes. The
// bench-history guard pins allocs/op at zero for this benchmark.
func BenchmarkKernelSteadyState(b *testing.B) {
	ctx := context.Background()
	reg := telemetry.New()
	cfg, _, err := build.Default(experiments.RunConfig{
		Workload: "SDSC", JobCount: benchJobs, FailureNominal: 1000,
		Scheduler: experiments.SchedBaseline, Seed: 1,
		Telemetry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up run: counts the events one run dispatches and warms the
	// scheduler buffers and MFP cache the steady state relies on.
	warm, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := warm.Run()
	if err != nil {
		b.Fatal(err)
	}
	perRun := res.EventsDispatched
	if perRun == 0 {
		b.Fatal("warm-up run dispatched no events")
	}

	b.ReportAllocs()
	b.ResetTimer()
	for done := int64(0); done < int64(b.N); {
		b.StopTimer()
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		upTo := perRun
		if left := int64(b.N) - done; left < upTo {
			upTo = left
		}
		if _, err := s.RunToEvent(ctx, upTo); err != nil {
			b.Fatal(err)
		}
		done += s.EventsDispatched()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkAnnealFinder measures the annealing placement search on the
// half-occupied paper machine: one Place call over the candidate set,
// the incremental cost the anneal finder adds on top of shape
// enumeration at every scheduling decision.
func BenchmarkAnnealFinder(b *testing.B) {
	gr := halfFullGrid(b)
	f := partition.NewAnnealFinder(7)
	cands := f.FreeOfSize(gr, 8)
	if len(cands) < 2 {
		b.Fatalf("degenerate candidate set: %d", len(cands))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Place(gr, cands)
	}
}

// BenchmarkContentionCharge measures one pairwise contention charge —
// the per-neighbor cost the dilation model pays on every job start.
func BenchmarkContentionCharge(b *testing.B) {
	g := torus.BlueGeneL()
	cfg, err := contention.FromLevel("medium")
	if err != nil {
		b.Fatal(err)
	}
	p := torus.Partition{Shape: torus.Shape{X: 2, Y: 2, Z: 4}}
	// Same (x, y) footprint, stacked along Z: the pair contends on the
	// four Z lines through the shared 2x2 column.
	q := torus.Partition{Base: torus.Coord{Z: 4}, Shape: torus.Shape{X: 2, Y: 2, Z: 4}}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cfg.Charge(g, p, q)
	}
	if sink <= 0 {
		b.Fatal("benchmark partitions share no lines")
	}
}
