package experiments

import (
	"fmt"
	"sort"

	"bgsched/internal/metrics"
)

// metricsSummary is the run summary type metric extraction reads.
type metricsSummary = metrics.Summary

// Options tunes the scale of a figure reproduction. The zero value
// gives the full-scale defaults; benchmarks use smaller JobCounts and
// a single replication.
type Options struct {
	// JobCount is the synthetic log length per run (default 1500).
	JobCount int
	// Seed makes the entire figure deterministic (default 1).
	Seed int64
	// FailureScale overrides the nominal-to-injected failure mapping
	// (see RunConfig.FailureScale).
	FailureScale float64
	// Metric selects what the timing figures plot: "slowdown" (the
	// paper's bounded slowdown, default), "response" or "wait". The
	// capacity figures (5, 7, 8, 10) ignore it.
	Metric string
	// Replications runs each sweep point under this many seeds
	// (default 3) and aggregates; average bounded slowdown on short
	// logs is chaotic enough that single runs mislead.
	Replications int
	// Aggregate folds replicates into one point: "median" (default,
	// robust to queueing-collapse outliers) or "mean".
	Aggregate string
	// CollectTelemetry attaches a fresh telemetry registry to every
	// sweep point and embeds its snapshot in the resulting tables
	// (Series.Telemetry / Table.Telemetry), so curves carry per-point
	// search-cost and distribution data, not just final aggregates.
	CollectTelemetry bool
}

func (o Options) normalize() Options {
	if o.JobCount == 0 {
		o.JobCount = 1500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Metric == "" {
		o.Metric = MetricSlowdown
	}
	if o.Replications == 0 {
		o.Replications = 3
	}
	if o.Aggregate == "" {
		o.Aggregate = AggMedian
	}
	return o
}

// Canonical returns the options with defaults filled: the form the
// service layer hashes, so default-equivalent figure requests land on
// the same cache entry.
func (o Options) Canonical() Options { return o.normalize() }

// Validate reports the first rule a normalized copy of the options
// breaks, naming the offending field: the one gate for figure options,
// applied by the service at submit and by bgsweep before any point
// runs. Caps that only protect a shared server's resources stay with
// that server.
func (o Options) Validate() error {
	o = o.normalize()
	if o.JobCount < 1 {
		return fmt.Errorf("JobCount must be >= 1, got %d", o.JobCount)
	}
	if o.Replications < 1 {
		return fmt.Errorf("Replications must be >= 1, got %d", o.Replications)
	}
	switch o.Metric {
	case MetricSlowdown, MetricResponse, MetricWait:
	default:
		return fmt.Errorf("Metric: unknown %q", o.Metric)
	}
	switch o.Aggregate {
	case AggMean, AggMedian:
	default:
		return fmt.Errorf("Aggregate: unknown %q", o.Aggregate)
	}
	if !(o.FailureScale >= 0) {
		return fmt.Errorf("FailureScale must be >= 0, got %g", o.FailureScale)
	}
	return nil
}

// Metric names accepted by Options.Metric.
const (
	MetricSlowdown = "slowdown"
	MetricResponse = "response"
	MetricWait     = "wait"
)

// metricValue extracts the selected metric from a run summary.
func metricValue(metric string, s metricsSummary) (float64, error) {
	switch metric {
	case MetricSlowdown:
		return s.AvgSlowdown, nil
	case MetricResponse:
		return s.AvgResponse, nil
	case MetricWait:
		return s.AvgWait, nil
	}
	return 0, fmt.Errorf("experiments: unknown metric %q (want %s, %s or %s)",
		metric, MetricSlowdown, MetricResponse, MetricWait)
}

// Spec identifies one reproducible figure of the paper. Run executes
// the figure through the given engine; a nil engine runs sequentially
// with legacy fail-fast semantics (see Engine). On error Run returns
// the partially-filled tables alongside it — completed points hold
// values, never-run slots hold NaN — so interrupted sweeps can flush
// partial results.
type Spec struct {
	ID    string
	Title string
	Run   func(*Engine, Options) ([]*Table, error)
}

// Specs lists every figure of the paper's evaluation section, in paper
// order. Figures 1 and 2 are illustrations, not experiments.
var Specs = []Spec{
	{"fig3", "Avg bounded slowdown vs failure rate, SDSC, balancing, a ∈ {0, 0.1, 0.9}", Figure3},
	{"fig4", "Avg bounded slowdown vs failure rate, SDSC, balancing, c ∈ {1.0, 1.2}", Figure4},
	{"fig5", "Utilization vs failure rate, SDSC, balancing, c ∈ {1.0, 1.2}", Figure5},
	{"fig6", "Avg bounded slowdown vs confidence, balancing, SDSC/NASA/LLNL", Figure6},
	{"fig7", "Utilization vs confidence, SDSC, balancing, c ∈ {1.0, 1.2}", Figure7},
	{"fig8", "Utilization vs confidence, NASA, balancing, c ∈ {1.0, 1.2}", Figure8},
	{"fig9", "Avg bounded slowdown vs accuracy, tie-breaking, SDSC/NASA/LLNL", Figure9},
	{"fig10", "Utilization vs accuracy, LLNL, tie-breaking, c ∈ {1.0, 1.2}", Figure10},
}

// SpecByID returns the spec for an id like "fig3".
func SpecByID(id string) (Spec, error) {
	for _, s := range Specs {
		if s.ID == id {
			return s, nil
		}
	}
	ids := make([]string, len(Specs))
	for i, s := range Specs {
		ids[i] = s.ID
	}
	sort.Strings(ids)
	return Spec{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, ids)
}

// failureAxis is the paper's failure-count sweep: 0 to 4000 in steps
// of 500 (Section 6.2).
var failureAxis = []int{0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}

// paramAxis is the paper's confidence/accuracy sweep: 0.0 to 1.0 in
// steps of 0.1 (Section 6.2).
var paramAxis = []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// baseCfg assembles the common RunConfig fields of a sweep point.
func baseCfg(opt Options, wl string, c float64, nominal int, kind SchedulerKind, a float64) RunConfig {
	return RunConfig{
		Workload: wl, JobCount: opt.JobCount, LoadScale: c,
		FailureNominal: nominal, FailureScale: opt.FailureScale,
		Scheduler: kind, Param: a, Seed: opt.Seed,
	}
}

// Figure3 reproduces Figure 3: average bounded slowdown versus failure
// rate for the SDSC log under the balancing algorithm, with no
// prediction (a=0.0) and with prediction at a=0.1 and a=0.9.
func Figure3(eng *Engine, opt Options) ([]*Table, error) {
	opt = opt.normalize()
	t := &Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Avg %s vs failure rate (SDSC, balancing, c=1.0)", opt.Metric),
		XLabel: "failures",
	}
	for _, n := range failureAxis {
		t.X = append(t.X, float64(n))
	}
	avals := []float64{0.0, 0.1, 0.9}
	t.Series = make([]Series, len(avals))
	var pts []point
	for si, a := range avals {
		t.Series[si] = newSeries(fmt.Sprintf("a=%.1f", a), len(failureAxis), opt)
		for xi, n := range failureAxis {
			pts = append(pts, metricPoint(opt, fmt.Sprintf("a=%.1f|x=%d", a, n),
				baseCfg(opt, "SDSC", 1.0, n, SchedBalancing, a), &t.Series[si], xi))
		}
	}
	// On error (cancellation included) the partially-filled table is
	// returned alongside it: completed points hold values, the rest NaN,
	// so an interrupted sweep can still flush what it finished.
	return []*Table{t}, eng.runPoints("fig3", pts)
}

// Figure4 reproduces Figure 4: average bounded slowdown versus failure
// rate for the SDSC log under the balancing algorithm at two load
// levels (c = 1.0 and 1.2). Prediction is held at a = 0.1, the paper's
// "modest confidence" operating point.
func Figure4(eng *Engine, opt Options) ([]*Table, error) {
	opt = opt.normalize()
	t := &Table{
		ID:     "fig4",
		Title:  fmt.Sprintf("Avg %s vs failure rate (SDSC, balancing, a=0.1)", opt.Metric),
		XLabel: "failures",
	}
	for _, n := range failureAxis {
		t.X = append(t.X, float64(n))
	}
	cvals := []float64{1.0, 1.2}
	t.Series = make([]Series, len(cvals))
	var pts []point
	for si, c := range cvals {
		t.Series[si] = newSeries(fmt.Sprintf("c=%.1f", c), len(failureAxis), opt)
		for xi, n := range failureAxis {
			pts = append(pts, metricPoint(opt, fmt.Sprintf("c=%.1f|x=%d", c, n),
				baseCfg(opt, "SDSC", c, n, SchedBalancing, 0.1), &t.Series[si], xi))
		}
	}
	return []*Table{t}, eng.runPoints("fig4", pts)
}

// Figure5 reproduces Figure 5: the capacity split (utilised / unused /
// lost) versus failure rate for the SDSC log under the balancing
// algorithm at a = 0.1, one panel per load level.
func Figure5(eng *Engine, opt Options) ([]*Table, error) {
	opt = opt.normalize()
	var tables []*Table
	var pts []point
	for _, c := range []float64{1.0, 1.2} {
		t := &Table{
			ID:     "fig5",
			Title:  fmt.Sprintf("Utilization vs failure rate (SDSC, balancing, a=0.1, c=%.1f)", c),
			XLabel: "failures",
		}
		for _, n := range failureAxis {
			t.X = append(t.X, float64(n))
		}
		t.allocTelemetry(len(failureAxis), opt)
		t.Series = capacitySeries(len(failureAxis))
		for xi, n := range failureAxis {
			pts = append(pts, capacityPoint(opt, fmt.Sprintf("c=%.1f|x=%d", c, n),
				baseCfg(opt, "SDSC", c, n, SchedBalancing, 0.1),
				t, &t.Series[0], &t.Series[1], &t.Series[2], xi))
		}
		tables = append(tables, t)
	}
	return tables, eng.runPoints("fig5", pts)
}

// paramFigure builds the three-panel slowdown-vs-parameter figure
// shared by Figures 6 (balancing) and 9 (tie-breaking). The failure
// count is the paper's reference 1000 (one failure per four days in
// the paper's density).
func paramFigure(eng *Engine, opt Options, id, param string, kind SchedulerKind) ([]*Table, error) {
	opt = opt.normalize()
	var tables []*Table
	var pts []point
	cvals := []float64{1.0, 1.2}
	for _, wl := range []string{"SDSC", "NASA", "LLNL"} {
		t := &Table{
			ID:     id,
			Title:  fmt.Sprintf("Avg %s vs %s (%s, %s)", opt.Metric, param, wl, kind),
			XLabel: param,
		}
		for _, a := range paramAxis {
			t.X = append(t.X, a)
		}
		t.Series = make([]Series, len(cvals))
		for si, c := range cvals {
			t.Series[si] = newSeries(fmt.Sprintf("c=%.1f", c), len(paramAxis), opt)
			for xi, a := range paramAxis {
				pts = append(pts, metricPoint(opt, fmt.Sprintf("%s|c=%.1f|x=%.1f", wl, c, a),
					baseCfg(opt, wl, c, 1000, kind, a), &t.Series[si], xi))
			}
		}
		tables = append(tables, t)
	}
	return tables, eng.runPoints(id, pts)
}

// Figure6 reproduces Figure 6: average bounded slowdown versus
// prediction confidence under the balancing algorithm for the SDSC,
// NASA and LLNL logs at c = 1.0 and 1.2.
func Figure6(eng *Engine, opt Options) ([]*Table, error) {
	return paramFigure(eng, opt, "fig6", "confidence", SchedBalancing)
}

// utilizationParamFigure builds the capacity-split-vs-parameter figure
// shared by Figures 7, 8 and 10.
func utilizationParamFigure(eng *Engine, opt Options, id, wl, param string, kind SchedulerKind) ([]*Table, error) {
	opt = opt.normalize()
	var tables []*Table
	var pts []point
	for _, c := range []float64{1.0, 1.2} {
		t := &Table{
			ID:     id,
			Title:  fmt.Sprintf("Utilization vs %s (%s, %s, c=%.1f)", param, wl, kind, c),
			XLabel: param,
		}
		for _, a := range paramAxis {
			t.X = append(t.X, a)
		}
		t.allocTelemetry(len(paramAxis), opt)
		t.Series = capacitySeries(len(paramAxis))
		for xi, a := range paramAxis {
			pts = append(pts, capacityPoint(opt, fmt.Sprintf("%s|c=%.1f|x=%.1f", wl, c, a),
				baseCfg(opt, wl, c, 1000, kind, a),
				t, &t.Series[0], &t.Series[1], &t.Series[2], xi))
		}
		tables = append(tables, t)
	}
	return tables, eng.runPoints(id, pts)
}

// Figure7 reproduces Figure 7: capacity split versus confidence for the
// SDSC log under the balancing algorithm.
func Figure7(eng *Engine, opt Options) ([]*Table, error) {
	return utilizationParamFigure(eng, opt, "fig7", "SDSC", "confidence", SchedBalancing)
}

// Figure8 reproduces Figure 8: capacity split versus confidence for the
// NASA log under the balancing algorithm.
func Figure8(eng *Engine, opt Options) ([]*Table, error) {
	return utilizationParamFigure(eng, opt, "fig8", "NASA", "confidence", SchedBalancing)
}

// Figure9 reproduces Figure 9: average bounded slowdown versus
// prediction accuracy under the tie-breaking algorithm for the SDSC,
// NASA and LLNL logs at c = 1.0 and 1.2.
func Figure9(eng *Engine, opt Options) ([]*Table, error) {
	return paramFigure(eng, opt, "fig9", "accuracy", SchedTieBreak)
}

// Figure10 reproduces Figure 10: capacity split versus accuracy for the
// LLNL log under the tie-breaking algorithm.
func Figure10(eng *Engine, opt Options) ([]*Table, error) {
	return utilizationParamFigure(eng, opt, "fig10", "LLNL", "accuracy", SchedTieBreak)
}
