package experiments

import (
	"context"
	"fmt"

	"bgsched/internal/sim"
	"bgsched/internal/stats"
)

// seedStride separates replicate seeds. Run derives internal seeds as
// Seed+1..Seed+3, so any stride comfortably above that avoids overlap.
const seedStride = 101

// ReplicateSet holds the results of the same configuration run under
// several seeds. Average bounded slowdown is a heavy-tailed, chaotic
// metric on short logs — a single queueing episode can dominate it —
// so the figure harness replicates every point and aggregates.
type ReplicateSet struct {
	Results []sim.Result
}

// RunSeeds executes cfg under reps different seeds (cfg.Seed,
// cfg.Seed+seedStride, ...).
func RunSeeds(cfg RunConfig, reps int) (ReplicateSet, error) {
	return RunSeedsContext(context.Background(), cfg, reps)
}

// RunSeedsContext is RunSeeds under a cancellation context; the context
// also cancels each replicate's event loop mid-run.
func RunSeedsContext(ctx context.Context, cfg RunConfig, reps int) (ReplicateSet, error) {
	if reps < 1 {
		return ReplicateSet{}, fmt.Errorf("experiments: %d replications", reps)
	}
	rs := ReplicateSet{Results: make([]sim.Result, 0, reps)}
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*seedStride
		res, err := RunContext(ctx, c)
		if err != nil {
			return ReplicateSet{}, err
		}
		rs.Results = append(rs.Results, res)
	}
	return rs, nil
}

// Statistic names: what a sweep point reads from each of its runs.
// Options.Metric accepts the three timing statistics; the capacity
// split is the fraction of machine time utilized, left unused and lost
// to failures; dilation is the simulated time network contention added.
const (
	MetricSlowdown = "slowdown"
	MetricResponse = "response"
	MetricWait     = "wait"
	MetricUtilized = "utilized"
	MetricUnused   = "unused"
	MetricLost     = "lost"
	MetricDilation = "dilation"
)

// statistic reads the named statistic of one run.
func statistic(name string, r sim.Result) (float64, error) {
	switch name {
	case MetricSlowdown:
		return r.Summary.AvgSlowdown, nil
	case MetricResponse:
		return r.Summary.AvgResponse, nil
	case MetricWait:
		return r.Summary.AvgWait, nil
	case MetricUtilized:
		return r.Summary.Utilization, nil
	case MetricUnused:
		return r.Summary.UnusedCapacity, nil
	case MetricLost:
		return r.Summary.LostCapacity, nil
	case MetricDilation:
		return r.DilationSeconds, nil
	}
	return 0, fmt.Errorf("experiments: unknown statistic %q", name)
}

// Metric extracts one named statistic from every replicate, in seed
// order.
func (rs ReplicateSet) Metric(name string) ([]float64, error) {
	out := make([]float64, 0, len(rs.Results))
	for _, r := range rs.Results {
		v, err := statistic(name, r)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Aggregation modes for replicated points.
const (
	AggMean   = "mean"
	AggMedian = "median"
)

// aggregate folds replicate values into one point.
func aggregate(vals []float64, how string) (float64, error) {
	switch how {
	case AggMean:
		return stats.Mean(vals), nil
	case AggMedian:
		return stats.Quantile(vals, 0.5), nil
	}
	return 0, fmt.Errorf("experiments: unknown aggregate %q (want %s or %s)", how, AggMean, AggMedian)
}
