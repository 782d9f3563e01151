package partition

import (
	"bgsched/internal/telemetry"
)

// Metrics holds the per-algorithm search-cost instruments a finder
// reports into. A nil *Metrics disables collection at the cost of one
// branch per call, so the zero-value finders stay cheap.
//
// Names are "finder.<algo>.*":
//
//	calls           FreeOfSize invocations
//	candidates      histogram of result-set sizes per call
//	bases_scanned   candidate base positions examined
//	early_rejects   bases discarded before the full footprint check
//	no_shape_exits  calls that terminated early with no legal shape
//	seconds         wall time per call
type Metrics struct {
	Calls        *telemetry.Counter
	Candidates   *telemetry.Histogram
	BasesScanned *telemetry.Counter
	EarlyRejects *telemetry.Counter
	NoShapeExits *telemetry.Counter
	Seconds      *telemetry.Timer
}

// NewMetrics resolves the instruments for one algorithm. Returns nil
// (collection disabled) on a nil registry.
func NewMetrics(reg *telemetry.Registry, algo string) *Metrics {
	if reg == nil {
		return nil
	}
	prefix := "finder." + algo + "."
	return &Metrics{
		Calls:        reg.Counter(prefix + "calls"),
		Candidates:   reg.Histogram(prefix + "candidates"),
		BasesScanned: reg.Counter(prefix + "bases_scanned"),
		EarlyRejects: reg.Counter(prefix + "early_rejects"),
		NoShapeExits: reg.Counter(prefix + "no_shape_exits"),
		Seconds:      reg.Timer(prefix + "seconds"),
	}
}

// startTimer begins the per-call timing; safe on nil.
func (m *Metrics) startTimer() telemetry.Stopwatch {
	if m == nil {
		return telemetry.Stopwatch{}
	}
	return m.Seconds.Start()
}

// observe folds one completed call's locally accumulated tallies into
// the shared instruments; safe on nil.
func (m *Metrics) observe(sw telemetry.Stopwatch, candidates, bases, earlyRejects int) {
	if m == nil {
		return
	}
	sw.Stop()
	m.Calls.Inc()
	m.Candidates.Observe(float64(candidates))
	m.BasesScanned.Add(int64(bases))
	m.EarlyRejects.Add(int64(earlyRejects))
}

// noShapes records a call that exited before any base scan because the
// requested size has no legal shape on this geometry; safe on nil.
func (m *Metrics) noShapes(sw telemetry.Stopwatch) {
	if m == nil {
		return
	}
	sw.Stop()
	m.Calls.Inc()
	m.Candidates.Observe(0)
	m.NoShapeExits.Inc()
}

// Instrumented wires reg into a copy of each known finder kind (in
// place for the annealing finder); other Finder implementations pass
// through unchanged. It is the one-liner CLIs and the experiments
// harness use to attach search-cost telemetry without caring which
// algorithm is configured.
func Instrumented(f Finder, reg *telemetry.Registry) Finder {
	if reg == nil {
		return f
	}
	switch ff := f.(type) {
	case NaiveFinder:
		ff.Metrics = NewMetrics(reg, ff.Name())
		return ff
	case POPFinder:
		ff.Metrics = NewMetrics(reg, ff.Name())
		return ff
	case ShapeFinder:
		ff.Metrics = NewMetrics(reg, ff.Name())
		return ff
	case *AnnealFinder:
		// Instrument the embedded enumerator under the anneal name; the
		// concrete type (and with it the Placer capability the scheduler
		// detects) is preserved.
		ff.inner.Metrics = NewMetrics(reg, ff.Name())
		return ff
	}
	return f
}
