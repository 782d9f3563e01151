package build

import (
	"testing"

	"bgsched/internal/core"
)

// TestQueueDrainSlack pins the horizon stretch factor: the simulated
// span is log.Span() * QueueDrainSlack, and both failure-trace
// generation and nominal failure-count scaling are defined over that
// stretched span. Changing the value silently reshapes every failure
// trace, so the exact constant is part of the frozen semantics.
func TestQueueDrainSlack(t *testing.T) {
	if QueueDrainSlack != 1.1 {
		t.Fatalf("QueueDrainSlack = %v, want 1.1 (changing it re-pins every golden digest)", QueueDrainSlack)
	}
}

func TestScaledFailureCount(t *testing.T) {
	day := 86400.0
	cases := []struct {
		name           string
		nominal        int
		override, span float64
		want           int
	}{
		{"nominal 0", 0, 0, 10 * day, 0},
		{"negative nominal", -5, 0, 10 * day, 0},
		// nominal 100 -> DefaultFailuresPerDay per day.
		{"nominal 100 over 10 days", 100, 0, 10 * day, 10},
		{"nominal 4000 over 10 days", 4000, 0, 10 * day, 400},
		// Tiny spans still inject at least one failure.
		{"tiny span", 100, 0, 60, 1},
		// Override bypasses the density mapping.
		{"override", 100, 2.5, 10 * day, 250},
	}
	for _, tc := range cases {
		if got, err := ScaledFailureCount(tc.nominal, tc.override, tc.span); err != nil || got != tc.want {
			t.Errorf("%s: ScaledFailureCount = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}
}

// TestScaledFailureCountRefusesAbsurdCounts: a count above the limit is
// refused, not generated. Scale 1e12 at nominal 100 made the generator
// panic, and 1e17 wrapped the int conversion negative, so the run
// silently injected no failures. Build refuses both before generating
// a trace.
func TestScaledFailureCountRefusesAbsurdCounts(t *testing.T) {
	for _, scale := range []float64{1e12, 1e17} {
		if got, err := ScaledFailureCount(100, scale, 86400); err == nil {
			t.Errorf("scale %g: ScaledFailureCount = %d, want an error", scale, got)
		}
		cfg := RunConfig{Workload: "SDSC", JobCount: 5, FailureNominal: 100, FailureScale: scale}
		if _, _, err := (&Builder{Cache: NewCache(0)}).Build(cfg); err == nil {
			t.Errorf("scale %g: Build succeeded, want an error", scale)
		}
	}
	if got, err := ScaledFailureCount(100, maxFailureCount/100, 86400); err != nil || got != maxFailureCount {
		t.Errorf("count at the limit: %d, %v; want %d", got, err, maxFailureCount)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := RunConfig{}
	c.Normalize()
	if c.Workload != "SDSC" || c.JobCount != 2000 || c.LoadScale != 1.0 ||
		c.Scheduler != SchedBaseline || c.Backfill != core.BackfillEASY {
		t.Fatalf("defaults = %+v", c)
	}
	s := RunConfig{BackfillStrict: true, Backfill: core.BackfillEASY}
	s.Normalize()
	if s.Backfill != core.BackfillNone {
		t.Fatal("BackfillStrict did not pin BackfillNone")
	}
	agg := RunConfig{Backfill: core.BackfillAggressive}
	agg.Normalize()
	if agg.Backfill != core.BackfillAggressive {
		t.Fatal("explicit aggressive mode overridden")
	}
}

func TestCanonicalClearsProcessLocalFields(t *testing.T) {
	c := RunConfig{Workload: "SDSC"}
	canon := c.Canonical()
	if canon.EventLog != nil || canon.Telemetry != nil {
		t.Fatal("Canonical kept process-local fields")
	}
	if canon.JobCount != 2000 {
		t.Fatalf("Canonical did not normalize: JobCount = %d", canon.JobCount)
	}
}
