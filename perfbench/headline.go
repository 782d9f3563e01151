package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"bgsched/internal/experiments"
	"bgsched/internal/sim"
)

// headlinePinned holds the result digest of the full-scale headline
// run at this commit (see README.md before re-pinning).
var headlinePinned = map[string]string{
	"SDSC/jobs=2000/balancing/a=0.1/failures=1000/seed=1": "d7795241a9f7a2da",
}

// headlineConfig is the README's headline configuration (bgsim
// -workload SDSC -jobs 2000 -sched balancing -a 0.1 -failures 1000 at
// bgsim's default seed 1: the default shape finder, EASY backfill, no
// event log, trace or telemetry), at the scale's job count.
func headlineConfig(sc scale) experiments.RunConfig {
	return experiments.RunConfig{Workload: "SDSC", JobCount: sc.headlineJobs,
		Scheduler: experiments.SchedBalancing, Param: 0.1, FailureNominal: 1000, Seed: 1}
}

func headlineKey(c experiments.RunConfig) string {
	return fmt.Sprintf("%s/jobs=%d/%s/a=%g/failures=%d/seed=%d",
		c.Workload, c.JobCount, c.Scheduler, c.Param, c.FailureNominal, c.Seed)
}

// checkHeadline checks one run's output: every job finished, and the
// digest repeats and matches any pin.
func checkHeadline(dc *digestCheck, c experiments.RunConfig, res sim.Result) error {
	if res.Summary.Jobs != c.JobCount {
		return fmt.Errorf("%s: %d of %d jobs finished", headlineKey(c), res.Summary.Jobs, c.JobCount)
	}
	return dc.check(headlineKey(c), resultDigest(res))
}

// runHeadline times repeated headline runs until the window is spent.
// The operation is one complete run through experiments.RunContext.
// The input is the fixed README command, so the seed changes nothing
// here (README.md says why).
func runHeadline(ctx context.Context, cfg config) (*report, error) {
	hc := headlineConfig(cfg.scale)
	key := headlineKey(hc)
	rep := newReport()
	dc := newDigestCheck(headlinePinned)

	// Set-up: the run's cold start.
	_, setup, err := medianSetup(ctx, cfg.scale, func() (struct{}, error) {
		return struct{}{}, coldStart(hc)
	}, nil)
	if err != nil {
		return nil, inPhase("setup", err)
	}

	err = rep.repeat(cfg.window, func() error {
		res, err := experiments.RunContext(ctx, hc)
		rep.attempted++
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			rep.fail(1, "%s: %v", key, err)
		} else if err := checkHeadline(dc, hc, res); err != nil {
			rep.fail(1, "%v", err)
		}
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

	// Traced pass: one run through the wrapped layers.
	cold, warm, err := buildCosts(hc)
	if err != nil {
		return nil, inPhase("traced", err)
	}
	spans := newSpanLog()
	var tot layerTotals
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := spans.begin("headline-run", 0)
	c0 := cpuTime()
	res, err := instrumentedRun(ctx, hc, spans, root, &tot)
	traced := cpuTime() - c0
	spans.end(root)
	runtime.ReadMemStats(&m1)
	rep.attempted++
	if err != nil {
		return nil, inPhase("traced", err)
	}
	if err := checkHeadline(dc, hc, res); err != nil {
		rep.fail(1, "traced: %v", err)
	}
	tot.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	tot.fill(rep.layers, 1)
	rep.layers["build.cold_ms"], rep.layers["build.warm_ms"] = ms(cold), ms(warm)
	rep.layers["bench.trace_overhead"] = traced.Seconds()/rep.e2e["op_cpu_s"] - 1
	return rep, inPhase("spans", spans.write(cfg.spans, fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed)))
}
