package main

import (
	"context"
	"fmt"
	"testing"

	"bgsched/internal/experiments"
	"bgsched/internal/partition"
	"bgsched/internal/telemetry"
)

// TestWrapFinderKeepsCapabilities checks that the wrapper implements
// BufferedFinder and Placer exactly when the finder it wraps does, for
// every registered finder in both the bare and the instrumented form
// the scheduler holds.
func TestWrapFinderKeepsCapabilities(t *testing.T) {
	for _, name := range partition.Names {
		f, err := partition.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, inner := range []partition.Finder{f, partition.Instrumented(f, telemetry.New())} {
			w := wrapFinder(inner, &finderCount{})
			_, innerBuf := inner.(partition.BufferedFinder)
			_, wrapBuf := w.(partition.BufferedFinder)
			_, innerPl := inner.(partition.Placer)
			_, wrapPl := w.(partition.Placer)
			if innerBuf != wrapBuf || innerPl != wrapPl {
				t.Errorf("%s (%T): BufferedFinder %v→%v, Placer %v→%v", name, inner, innerBuf, wrapBuf, innerPl, wrapPl)
			}
			if w.Name() != inner.Name() {
				t.Errorf("%s: wrapper name %q, inner %q", name, w.Name(), inner.Name())
			}
		}
	}
}

// TestInstrumentedRunMatchesUntraced runs a small config under every
// finder and every scheduler kind, untraced and through the wrapped
// layers, and requires identical result digests.
func TestInstrumentedRunMatchesUntraced(t *testing.T) {
	kinds := []experiments.SchedulerKind{experiments.SchedBaseline, experiments.SchedBalancing,
		experiments.SchedTieBreak, experiments.SchedBalancingLearned, experiments.SchedTieBreakLearned}
	ctx := context.Background()
	for _, name := range partition.Names {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				cfg := experiments.RunConfig{Workload: "SDSC", JobCount: 60, FailureNominal: 2000,
					Scheduler: kind, Param: 0.5, Finder: name, Seed: 3}
				want, err := experiments.RunContext(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var tot layerTotals
				got, err := instrumentedRun(ctx, cfg, newSpanLog(), 0, &tot)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := resultDigest(got), resultDigest(want); g != w {
					t.Errorf("traced digest %s, untraced %s", g, w)
				}
				if tot.finder.calls == 0 || tot.policyCalls == 0 || tot.decisions == 0 {
					t.Errorf("wrappers saw no work: %+v", tot)
				}
				if policy := tot.policyDur + tot.finder.dur; policy.Seconds() > tot.decisionSec {
					t.Errorf("policy+finder %v exceeds the decision time %.6fs", policy, tot.decisionSec)
				}
				if probed := kind != experiments.SchedBaseline; probed != (tot.probes > 0) {
					t.Errorf("%d predictor probes for %s", tot.probes, kind)
				}
			})
		}
	}
}
