package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgsched/internal/build"
	"bgsched/internal/experiments"
	"bgsched/internal/sim"
)

// sweepPinned holds the table digest of the full-scale fig6
// regeneration at this commit (see README.md before re-pinning).
var sweepPinned = map[string]string{
	"fig6/jobs=400/reps=1/seed=1": "54c0d0e6dd96e52c",
}

func sweepKey(jobs int, seed int64) string {
	return fmt.Sprintf("fig6/jobs=%d/reps=1/seed=%d", jobs, seed)
}

// regenerate runs Figure 6 the way a fresh bgsweep process does: from
// an empty artifact cache, through an isolating Engine with workers
// points in flight, one replication per point.
func regenerate(ctx context.Context, jobs int, seed int64, workers int, telemetry bool) ([]*experiments.Table, *experiments.Engine, time.Duration, error) {
	build.Shared.Purge()
	eng := &experiments.Engine{Ctx: ctx, Workers: workers, Isolate: true}
	opt := experiments.Options{JobCount: jobs, Replications: 1, Seed: seed, CollectTelemetry: telemetry}
	t0 := time.Now()
	tables, err := experiments.Figure6(eng, opt)
	return tables, eng, time.Since(t0), err
}

// tablesDigest identifies a figure's data: every table's title, axis,
// series names and values.
func tablesDigest(ts []*experiments.Table) string {
	var parts []any
	for _, t := range ts {
		parts = append(parts, t.ID, t.Title, t.X)
		for _, s := range t.Series {
			parts = append(parts, s.Name, s.Y)
		}
	}
	return digest(parts...)
}

// checkSweep counts one regeneration's points as attempted and books
// the failed ones: points in Engine.Failures, NaN slots, and — when the
// table digest does not repeat or match its pin — every point.
func checkSweep(rep *report, dc *digestCheck, key string, tables []*experiments.Table, eng *experiments.Engine) {
	slots, nan := 0, 0
	for _, t := range tables {
		for _, s := range t.Series {
			for _, y := range s.Y {
				slots++
				if math.IsNaN(y) {
					nan++
				}
			}
		}
	}
	rep.attempted += slots
	if err := dc.check(key, tablesDigest(tables)); err != nil {
		rep.fail(slots, "%v", err)
		return
	}
	if bad := max(len(eng.Failures()), nan); bad > 0 {
		rep.fail(bad, "%s: %d failed points, %d NaN slots", key, len(eng.Failures()), nan)
	}
}

// sweepPoint is one figure point replayed outside the engine.
type sweepPoint struct {
	cfg  experiments.RunConfig
	want float64 // the value the engine put in the table
}

// fig6Logs are Figure 6's logs, one table each, in table order.
var fig6Logs = []string{"SDSC", "NASA", "LLNL"}

// fig6Points rebuilds the run behind every slot of a Figure 6
// regeneration: one table per log, one series per load coefficient c,
// one point per confidence a on the x axis.
func fig6Points(tables []*experiments.Table, jobs int, seed int64) ([]sweepPoint, error) {
	logs := fig6Logs
	if len(tables) != len(logs) {
		return nil, fmt.Errorf("fig6 has %d tables, want %d", len(tables), len(logs))
	}
	var pts []sweepPoint
	for ti, t := range tables {
		if !strings.Contains(t.Title, "("+logs[ti]+",") {
			return nil, fmt.Errorf("fig6 table %d is %q, want log %s", ti, t.Title, logs[ti])
		}
		for _, s := range t.Series {
			var c float64
			if _, err := fmt.Sscanf(s.Name, "c=%g", &c); err != nil {
				return nil, fmt.Errorf("fig6 series %q: %w", s.Name, err)
			}
			for xi, a := range t.X {
				pts = append(pts, sweepPoint{want: s.Y[xi], cfg: experiments.RunConfig{
					Workload: logs[ti], JobCount: jobs, LoadScale: c, FailureNominal: 1000,
					Scheduler: experiments.SchedBalancing, Param: a, Seed: seed}})
			}
		}
	}
	return pts, nil
}

// replay runs every point through instrumentedRun on workers
// goroutines and returns the results and per-point errors.
func replay(ctx context.Context, pts []sweepPoint, workers int, spans *spanLog, cause int, tot *layerTotals) ([]sim.Result, []error) {
	results := make([]sim.Result, len(pts))
	errs := make([]error, len(pts))
	totals := make([]layerTotals, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pts); i = int(next.Add(1)) - 1 {
				results[i], errs[i] = instrumentedRun(ctx, pts[i].cfg, spans, cause, &totals[w])
			}
		}()
	}
	wg.Wait()
	for w := range totals {
		tot.merge(&totals[w])
	}
	return results, errs
}

// runSweep times repeated Figure 6 regenerations (bgsweep -fig fig6
// at its default seed 1, one replication, the scale's job count) until
// the window is spent. The operation is one regeneration. The input is
// fixed, so the seed changes nothing here (README.md says why).
func runSweep(ctx context.Context, cfg config) (*report, error) {
	sc := cfg.scale
	const seed = 1
	key := sweepKey(sc.sweepJobs, seed)
	workers := runtime.NumCPU()
	rep := newReport()
	dc := newDigestCheck(sweepPinned)

	// Set-up: the cold start of each of the figure's six artifact sets
	// (one per log and load coefficient; the confidence a changes only
	// the policy).
	var starts []experiments.RunConfig
	for _, wl := range fig6Logs {
		for _, c := range []float64{1.0, 1.2} {
			starts = append(starts, experiments.RunConfig{Workload: wl, JobCount: sc.sweepJobs, LoadScale: c,
				FailureNominal: 1000, Scheduler: experiments.SchedBalancing, Seed: seed})
		}
	}
	_, setup, err := medianSetup(ctx, sc, func() (struct{}, error) {
		return struct{}{}, coldStart(starts...)
	}, nil)
	if err != nil {
		return nil, inPhase("setup", err)
	}

	err = rep.repeat(cfg.window, func() error {
		tables, eng, _, err := regenerate(ctx, sc.sweepJobs, seed, workers, false)
		if err != nil {
			return err
		}
		checkSweep(rep, dc, key, tables, eng)
		return nil
	})
	if err != nil {
		return nil, inPhase("timed", err)
	}
	dc.print(os.Stderr)
	rep.e2e["setup_s"] = setup
	rep.e2e["live_heap_mb"] = liveHeapMB()
	if !cfg.traced {
		return rep, nil
	}

	// Traced pass: one regeneration with per-point telemetry, then every
	// point replayed through the wrapped layers.
	spans := newSpanLog()
	root := spans.begin("fig6-sweep", 0)
	fs := spans.begin("experiments.Figure6", root)
	c0 := cpuTime()
	tables, eng, wall, err := regenerate(ctx, sc.sweepJobs, seed, workers, true)
	traced := cpuTime() - c0
	spans.end(fs)
	if err != nil {
		return nil, inPhase("traced", err)
	}
	checkSweep(rep, dc, key, tables, eng)
	var sweep layerTotals
	for _, t := range tables {
		for _, s := range t.Series {
			for _, snap := range s.Telemetry {
				sweep.addSnapshot(snap)
			}
		}
	}
	pts, err := fig6Points(tables, sc.sweepJobs, seed)
	if err != nil {
		return nil, inPhase("traced", err)
	}
	cold, warm, err := buildCosts(pts[0].cfg)
	if err != nil {
		return nil, inPhase("traced", err)
	}
	rs := spans.begin("replay", root)
	var tot layerTotals
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	results, errs := replay(ctx, pts, workers, spans, rs, &tot)
	runtime.ReadMemStats(&m1)
	spans.end(rs)
	spans.end(root)
	if ctx.Err() != nil {
		return nil, inPhase("traced", ctx.Err())
	}
	tot.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.attempted += len(pts)
	for i, p := range pts {
		switch {
		case errs[i] != nil:
			rep.fail(1, "replay %s c=%g a=%g: %v", p.cfg.Workload, p.cfg.LoadScale, p.cfg.Param, errs[i])
		case math.Float64bits(results[i].Summary.AvgSlowdown) != math.Float64bits(p.want):
			rep.fail(1, "replay %s c=%g a=%g: slowdown %v, table %v",
				p.cfg.Workload, p.cfg.LoadScale, p.cfg.Param, results[i].Summary.AvgSlowdown, p.want)
		}
	}
	layers := rep.layers
	tot.fill(layers, 1)
	layers["build.cold_ms"], layers["build.warm_ms"] = ms(cold), ms(warm)
	layers["build.cache_hit_ratio"] = ratio(float64(sweep.buildHits), float64(sweep.buildHits+sweep.buildMisses))
	layers["experiments.decision_share"] = sweep.decisionSec / (wall.Seconds() * float64(workers))
	layers["experiments.failed_points"] = float64(len(eng.Failures()))
	layers["bench.trace_overhead"] = traced.Seconds()/rep.e2e["op_cpu_s"] - 1
	return rep, inPhase("spans", spans.write(cfg.spans, fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed)))
}
