package experiments

import "fmt"

// LearnedSweep is an extension experiment beyond the paper: average
// bounded slowdown versus the learned predictor's decision threshold,
// with the fault-unaware baseline and the oracle-with-knob schedulers
// as reference lines. It answers the question the paper's
// oracle-with-knob model abstracts away — how does scheduling
// performance vary across a *real* predictor's operating points?
func LearnedSweep(eng *Engine, opt Options, wl string) (*Table, error) {
	opt = opt.normalize()
	thresholds := []float64{0.05, 0.1, 0.25, 0.5, 0.75}
	t := &Table{
		ID:     "learned",
		Title:  fmt.Sprintf("Avg %s vs learned-predictor threshold (%s, nominal 1000 failures)", opt.Metric, wl),
		XLabel: "threshold",
	}
	for _, th := range thresholds {
		t.X = append(t.X, th)
	}
	n := len(thresholds)
	t.Series = []Series{
		{Name: "baseline", Y: nanSlots(n)},
		newSeries("balancing-learned", n, opt),
		newSeries("tiebreak-learned", n, opt),
		{Name: "balancing-knob-0.5", Y: nanSlots(n)},
	}

	var pts []point
	for xi, th := range thresholds {
		pts = append(pts,
			metricPoint(opt, fmt.Sprintf("balancing|x=%.2f", th),
				baseCfg(opt, wl, 1.0, 1000, SchedBalancingLearned, th), &t.Series[1], xi),
			metricPoint(opt, fmt.Sprintf("tiebreak|x=%.2f", th),
				baseCfg(opt, wl, 1.0, 1000, SchedTieBreakLearned, th), &t.Series[2], xi))
	}
	// Reference lines: one point each, written to slot 0 and copied
	// flat across the axis (their snapshot would misalign with the
	// threshold axis, so none is kept).
	pts = append(pts,
		sweepPoint(opt, "ref|baseline", baseCfg(opt, wl, 1.0, 1000, SchedBaseline, 0), nil,
			stat{opt.Metric, &t.Series[0].Y[0]}),
		sweepPoint(opt, "ref|knob-0.5", baseCfg(opt, wl, 1.0, 1000, SchedBalancing, 0.5), nil,
			stat{opt.Metric, &t.Series[3].Y[0]}))

	// Partial tables ride along with any error (see KrevatTable).
	err := eng.runPoints("learned", pts)
	for _, s := range []*Series{&t.Series[0], &t.Series[3]} {
		for i := range s.Y {
			s.Y[i] = s.Y[0]
		}
	}
	return t, err
}
