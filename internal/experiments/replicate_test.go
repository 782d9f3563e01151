package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bgsched/internal/metrics"
	"bgsched/internal/sim"
)

func TestRunSeeds(t *testing.T) {
	cfg := RunConfig{Workload: "NASA", JobCount: 80, FailureNominal: 1000,
		Scheduler: SchedBalancing, Param: 0.3, Seed: 5}
	rs, err := RunSeeds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 3 {
		t.Fatalf("got %d replicates", len(rs.Results))
	}
	// Replicates must actually differ (different seeds).
	if reflect.DeepEqual(rs.Results[0].Outcomes, rs.Results[1].Outcomes) {
		t.Fatal("replicates identical: seeds not varied")
	}
	// And be reproducible.
	rs2, err := RunSeeds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Results, rs2.Results) {
		t.Fatal("RunSeeds not deterministic")
	}
}

func TestRunSeedsErrors(t *testing.T) {
	if _, err := RunSeeds(RunConfig{}, 0); err == nil {
		t.Fatal("zero replications accepted")
	}
	if _, err := RunSeeds(RunConfig{Workload: "EARTH", JobCount: 10}, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestReplicateSetMetricAndCapacity(t *testing.T) {
	cfg := RunConfig{Workload: "NASA", JobCount: 60, Scheduler: SchedBaseline, Seed: 2}
	rs, err := RunSeeds(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{MetricSlowdown, MetricResponse, MetricWait} {
		vals, err := rs.Metric(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 2 {
			t.Fatalf("%s: %d values", m, len(vals))
		}
	}
	if _, err := rs.Metric("bogus"); err == nil {
		t.Fatal("bogus metric accepted")
	}
	var capacity [3][]float64
	for i, m := range []string{MetricUtilized, MetricUnused, MetricLost} {
		if capacity[i], err = rs.Metric(m); err != nil {
			t.Fatal(err)
		}
	}
	u, n, l := capacity[0], capacity[1], capacity[2]
	if len(u) != 2 || len(n) != 2 || len(l) != 2 {
		t.Fatal("capacity lengths")
	}
	for i := range u {
		if s := u[i] + n[i] + l[i]; s < 0.999 || s > 1.001 {
			t.Fatalf("capacity sum %g", s)
		}
	}
	// Contention is off, so it adds no time.
	if d, err := rs.Metric(MetricDilation); err != nil || d[0] != 0 || d[1] != 0 {
		t.Fatalf("dilation = %v, %v", d, err)
	}
}

func TestMetricValue(t *testing.T) {
	r := sim.Result{
		Summary: metrics.Summary{AvgSlowdown: 1, AvgResponse: 2, AvgWait: 3,
			Utilization: 0.5, UnusedCapacity: 0.3, LostCapacity: 0.2},
		DilationSeconds: 7,
	}
	cases := map[string]float64{MetricSlowdown: 1, MetricResponse: 2, MetricWait: 3,
		MetricUtilized: 0.5, MetricUnused: 0.3, MetricLost: 0.2, MetricDilation: 7}
	for m, want := range cases {
		got, err := statistic(m, r)
		if err != nil || got != want {
			t.Errorf("statistic(%s) = %g, %v", m, got, err)
		}
	}
	if _, err := statistic("throughput", r); err == nil {
		t.Fatal("unknown statistic accepted")
	}
}

func TestAggregate(t *testing.T) {
	vals := []float64{1, 2, 100}
	if got, err := aggregate(vals, AggMean); err != nil || got != (103.0/3) {
		t.Fatalf("mean = %g, %v", got, err)
	}
	if got, err := aggregate(vals, AggMedian); err != nil || got != 2 {
		t.Fatalf("median = %g, %v", got, err)
	}
	if _, err := aggregate(vals, "mode"); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
}

func TestRunMetricPointAggregates(t *testing.T) {
	opt := Options{JobCount: 60, Seed: 3, Replications: 3, Metric: MetricSlowdown, Aggregate: AggMedian}
	cfg := baseCfg(opt, "NASA", 1.0, 1000, SchedBalancing, 0.5)
	s := newSeries("s", 1, opt)
	p := metricPoint(opt, "k", cfg, &s, 0)
	vals, snap, err := p.run(context.Background(), p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("snapshot returned without CollectTelemetry")
	}
	v := vals[0]
	opt.CollectTelemetry = true
	s = newSeries("s", 1, opt)
	p = metricPoint(opt, "k", cfg, &s, 0)
	vals, snap, err = p.run(context.Background(), p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("CollectTelemetry set but no snapshot returned")
	}
	p.fill(vals, snap)
	if s.Y[0] != v || s.Telemetry[0] != snap {
		t.Fatalf("fill wrote %g, %p; want %g, %p", s.Y[0], s.Telemetry[0], v, snap)
	}
	// The point registry aggregates all three replicates.
	if got, want := snap.Counters["sim.finishes"], int64(3*60); got != want {
		t.Fatalf("point snapshot finishes = %d, want %d", got, want)
	}
	if snap.Counters["finder.shape.calls"] == 0 {
		t.Fatal("point snapshot missing partition-finder counters")
	}
	// The aggregated value must be one of (median) or bounded by the
	// replicate values.
	rs, err := RunSeeds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rs.Metric(MetricSlowdown)
	if err != nil {
		t.Fatal(err)
	}
	min, max := raw[0], raw[0]
	for _, x := range raw {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if v < min || v > max {
		t.Fatalf("aggregate %g outside replicate range [%g, %g]", v, min, max)
	}
	// A failed point leaves its slot at NaN.
	f := newSeries("f", 1, opt)
	metricPoint(opt, "k", cfg, &f, 0).fill(nil, nil)
	if !math.IsNaN(f.Y[0]) || f.Telemetry[0] != nil {
		t.Fatalf("failed point wrote %g, %v", f.Y[0], f.Telemetry[0])
	}
}
