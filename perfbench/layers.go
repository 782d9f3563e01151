package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"bgsched/internal/build"
	"bgsched/internal/core"
	"bgsched/internal/experiments"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
)

// layerTotals accumulates per-layer work over the traced pass's
// operations; fill turns it into per-operation metrics.
type layerTotals struct {
	runDur     time.Duration // simulator runs (RunContext wall)
	allocBytes uint64
	events     int64

	policyObserved           bool // a countedPolicy saw the runs
	policyCalls, policyCands int64
	policyDur                time.Duration
	probes                   int64
	mfpHits, mfpMisses       uint64
	finder                   finderCount

	// From the runs' telemetry registries.
	decisions               int64
	decisionSec             float64
	bfAttempts, bfSuccesses int64
	buildHits, buildMisses  int64
	fastHits, fastMisses    int64
	contention              int64
}

// addSnapshot folds one run's telemetry into the totals.
func (t *layerTotals) addSnapshot(s *telemetry.Snapshot) {
	if s == nil {
		return
	}
	c := s.Counters
	d := s.Histograms["sched.decision.seconds"]
	t.decisions += d.Count
	t.decisionSec += d.Sum
	t.bfAttempts += c["sched.backfill.attempts"]
	t.bfSuccesses += c["sched.backfill.successes"]
	t.buildHits += c["build.cache.hits"]
	t.buildMisses += c["build.cache.misses"]
	t.fastHits += c["finder.fast.cache_hits"]
	t.fastMisses += c["finder.fast.cache_misses"]
	t.contention += c["sim.contention.charges"]
}

// merge adds o into t.
func (t *layerTotals) merge(o *layerTotals) {
	t.runDur += o.runDur
	t.allocBytes += o.allocBytes
	t.events += o.events
	t.policyObserved = t.policyObserved || o.policyObserved
	t.policyCalls += o.policyCalls
	t.policyCands += o.policyCands
	t.policyDur += o.policyDur
	t.probes += o.probes
	t.mfpHits += o.mfpHits
	t.mfpMisses += o.mfpMisses
	t.finder.calls += o.finder.calls
	t.finder.cands += o.finder.cands
	t.finder.dur += o.finder.dur
	t.decisions += o.decisions
	t.decisionSec += o.decisionSec
	t.bfAttempts += o.bfAttempts
	t.bfSuccesses += o.bfSuccesses
	t.buildHits += o.buildHits
	t.buildMisses += o.buildMisses
	t.fastHits += o.fastHits
	t.fastMisses += o.fastMisses
	t.contention += o.contention
}

// fill writes the totals into m, counts and times per operation.
func (t *layerTotals) fill(m map[string]float64, ops float64) {
	decisionDur := time.Duration(t.decisionSec * float64(time.Second))
	m["sim.events"] = float64(t.events) / ops
	m["sim.us_per_event"] = ratio(float64(t.runDur)/float64(time.Microsecond), float64(t.events))
	m["sim.self_ms"] = ms(t.runDur-decisionDur) / ops
	m["sim.alloc_mb"] = float64(t.allocBytes) / (1 << 20) / ops
	m["core.decisions"] = float64(t.decisions) / ops
	m["core.decision_ms"] = ms(decisionDur) / ops
	m["core.backfill_useful_ratio"] = ratio(float64(t.bfSuccesses), float64(t.bfAttempts))
	m["core.finder_calls_per_decision"] = ratio(float64(t.finder.calls), float64(t.decisions))
	m["partition.finder_ms"] = ms(t.finder.dur) / ops
	m["partition.finder_calls"] = float64(t.finder.calls) / ops
	m["partition.cands_per_call"] = ratio(float64(t.finder.cands), float64(t.finder.calls))
	m["partition.fast_cache_hit_ratio"] = ratio(float64(t.fastHits), float64(t.fastHits+t.fastMisses))
	m["build.cache_hit_ratio"] = ratio(float64(t.buildHits), float64(t.buildHits+t.buildMisses))
	m["contention.charges"] = float64(t.contention) / ops
	if t.policyObserved {
		m["core.self_ms"] = ms(decisionDur-t.policyDur-t.finder.dur) / ops
		m["core.policy_ms"] = ms(t.policyDur) / ops
		m["core.cands_per_choose"] = ratio(float64(t.policyCands), float64(t.policyCalls))
		m["predict.probes"] = float64(t.probes) / ops
		m["partition.mfp_cache_hit_ratio"] = ratio(float64(t.mfpHits), float64(t.mfpHits+t.mfpMisses))
		m["partition.mfp_lookups"] = float64(t.mfpHits+t.mfpMisses) / ops
	}
}

// instrumentedRun is one simulation through the calls
// experiments.RunContext makes (build.Default, sim.New,
// Simulator.RunContext, Artifacts.ReleaseJobs), with a telemetry
// registry attached and the scheduler rebuilt from its own Config
// around counting policy and finder wrappers. Spans for the build and
// the run are caused by cause.
func instrumentedRun(ctx context.Context, cfg experiments.RunConfig, spans *spanLog, cause int, t *layerTotals) (sim.Result, error) {
	reg := telemetry.New()
	cfg.Telemetry = reg
	bs := spans.begin("build.Default", cause)
	sc, art, err := build.Default(cfg)
	spans.end(bs)
	if err != nil {
		return sim.Result{}, fmt.Errorf("build: %w", err)
	}
	var probes int64
	var fc finderCount
	sched := sc.Scheduler.Config()
	pol := wrapPolicy(sched.Policy, &probes)
	sched.Policy = pol
	sched.Finder = wrapFinder(sched.Finder, &fc)
	if sc.Scheduler, err = core.NewScheduler(sched); err != nil {
		return sim.Result{}, fmt.Errorf("rebuild scheduler: %w", err)
	}
	s, err := sim.New(sc)
	if err != nil {
		return sim.Result{}, fmt.Errorf("sim.New: %w", err)
	}
	rs := spans.begin("sim.RunContext", cause)
	t0 := time.Now()
	res, err := s.RunContext(ctx)
	dur := time.Since(t0)
	spans.end(rs)
	if err != nil {
		return sim.Result{}, fmt.Errorf("run: %w", err)
	}
	art.ReleaseJobs()
	spans.aggregate("core.Policy.Choose", rs, pol.calls, pol.dur)
	spans.aggregate("partition.Finder", rs, fc.calls, fc.dur)

	t.runDur += dur
	t.events += res.EventsDispatched
	t.policyObserved = true
	t.policyCalls += pol.calls
	t.policyCands += pol.cands
	t.policyDur += pol.dur
	t.probes += probes
	hits, misses := pol.mfp.Stats()
	t.mfpHits += hits
	t.mfpMisses += misses
	t.finder.calls += fc.calls
	t.finder.cands += fc.cands
	t.finder.dur += fc.dur
	t.addSnapshot(reg.Snapshot())
	return res, nil
}

// coldStart is what a fresh process does for cfgs before a run's first
// event: build each on an emptied artifact cache and construct its
// simulator.
func coldStart(cfgs ...experiments.RunConfig) error {
	build.Shared.Purge()
	for _, cfg := range cfgs {
		sc, art, err := build.Default(cfg)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		if _, err := sim.New(sc); err != nil {
			return fmt.Errorf("sim.New: %w", err)
		}
		art.ReleaseJobs()
	}
	return nil
}

// buildCostReps is how many times buildCosts times each call; one
// millisecond-scale call is too easily caught by a collection.
const buildCostReps = 9

// buildCosts times the benchmark's own build.Default call for cfg on
// an empty artifact cache and again on the warm one, and returns the
// median of each.
func buildCosts(cfg experiments.RunConfig) (cold, warm time.Duration, err error) {
	var times [2][]float64
	for r := 0; r < buildCostReps; r++ {
		build.Shared.Purge()
		for i := range times {
			t0 := time.Now()
			_, art, err := build.Default(cfg)
			d := time.Since(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("build %d: %w", i, err)
			}
			art.ReleaseJobs()
			times[i] = append(times[i], float64(d))
		}
	}
	return time.Duration(quantile(times[0], 0.5)), time.Duration(quantile(times[1], 0.5)), nil
}

// digestCheck verifies that an operation's output digest repeats
// across repetitions and matches the digest pinned for its key, if any.
type digestCheck struct {
	pinned map[string]string
	seen   map[string]string
}

func newDigestCheck(pinned map[string]string) *digestCheck {
	return &digestCheck{pinned: pinned, seen: map[string]string{}}
}

// check reports a mismatch for key as an error.
func (c *digestCheck) check(key, got string) error {
	if want, ok := c.pinned[key]; ok && got != want {
		return fmt.Errorf("%s: digest %s, pinned %s", key, got, want)
	}
	if prev, ok := c.seen[key]; ok && got != prev {
		return fmt.Errorf("%s: digest %s, earlier repetition %s", key, got, prev)
	}
	c.seen[key] = got
	return nil
}

// print lists every digest seen, one "digest <key> <digest>" line per
// key in key order, for re-pinning.
func (c *digestCheck) print(w io.Writer) {
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "digest %s %s\n", k, c.seen[k])
	}
}
