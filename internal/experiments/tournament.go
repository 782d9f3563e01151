package experiments

import (
	"fmt"
	"strings"

	"bgsched/internal/partition"
)

// TournamentOptions parameterises the placement-policy tournament.
// The zero value is the frozen default bracket the golden tournament
// digest pins.
type TournamentOptions struct {
	// JobCount is the synthetic log length per entry; 0 means 100.
	JobCount int
	// Seed drives workload synthesis and failure generation; 0 means 7
	// (the golden grid's seed).
	Seed int64
	// FailureNominal is the injected failure count in paper-axis units;
	// 0 means 1000. Failures keep the fault-aware scheduler honest while
	// the placement policy varies.
	FailureNominal int
	// AnnealSeed seeds the anneal finder's placement search; 0 means 1.
	AnnealSeed int64
	// Levels are the contention presets every finder runs under; nil
	// means {"off", "medium"} — the paper's contention-free model next
	// to a loaded network.
	Levels []string
	// Workloads are the synthetic logs every finder runs; nil means the
	// three paper models {"NASA", "SDSC", "LLNL"}.
	Workloads []string
}

func (o *TournamentOptions) normalize() {
	if o.JobCount == 0 {
		o.JobCount = 100
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.FailureNominal == 0 {
		o.FailureNominal = 1000
	}
	if o.AnnealSeed == 0 {
		o.AnnealSeed = 1
	}
	if o.Levels == nil {
		o.Levels = []string{"off", "medium"}
	}
	if o.Workloads == nil {
		o.Workloads = []string{"NASA", "SDSC", "LLNL"}
	}
}

// Tournament runs the placement-policy tournament: every registered
// partition finder against every workload model, with the network-
// contention model off and on, under the paper's balancing scheduler.
// Each entry is one full simulation; the merged table carries one row
// per (finder, workload, contention) combination with the headline
// scheduling metrics plus the contention model's dilation total. The
// bracket is Baranov-style — identical inputs for every contestant, so
// a row differs from its neighbours only through the finder's
// placement choices and the contention level.
//
// The default bracket is frozen by the golden tournament digest
// (golden_tournament_test.go): byte-identical cold vs warm and across
// same-seed re-runs.
func Tournament(eng *Engine, opt TournamentOptions) (*Table, error) {
	if eng != nil && eng.Finder != "" {
		return nil, fmt.Errorf("experiments: tournament varies the finder; clear Engine.Finder (have %q)", eng.Finder)
	}
	if eng != nil && eng.Contention != "" {
		return nil, fmt.Errorf("experiments: tournament varies contention; clear Engine.Contention (have %q)", eng.Contention)
	}
	opt.normalize()
	n := len(partition.Names) * len(opt.Workloads) * len(opt.Levels)
	t := &Table{
		ID:     "tournament",
		Title:  "Placement-policy tournament (finder x workload x contention)",
		XLabel: "finder/workload/contention",
		X:      make([]float64, n),
		Rows:   make([]string, n),
		Series: []Series{
			{Name: "bounded slowdown", Y: nanSlots(n)},
			{Name: "avg wait", Y: nanSlots(n)},
			{Name: "utilization", Y: nanSlots(n)},
			{Name: "dilation (s)", Y: nanSlots(n)},
		},
	}
	pts := make([]point, 0, n)
	next := 0
	for _, finder := range partition.Names {
		for _, wl := range opt.Workloads {
			for _, level := range opt.Levels {
				i := next
				next++
				t.X[i] = float64(i)
				t.Rows[i] = fmt.Sprintf("%s/%s/%s", finder, strings.ToLower(wl), level)
				cfg := RunConfig{
					Workload:       wl,
					JobCount:       opt.JobCount,
					FailureNominal: opt.FailureNominal,
					Scheduler:      SchedBalancing,
					Param:          0.5,
					Finder:         finder,
					AnnealSeed:     opt.AnnealSeed,
					Contention:     level,
					Seed:           opt.Seed,
				}
				pts = append(pts, sweepPoint(singleRun, t.Rows[i], cfg, nil,
					rowStats(t, i, MetricSlowdown, MetricWait, MetricUtilized, MetricDilation)...))
			}
		}
	}
	return t, eng.runPoints("tournament", pts)
}
