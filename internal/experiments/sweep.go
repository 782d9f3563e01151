package experiments

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bgsched/internal/resilience"
	"bgsched/internal/telemetry"
	"bgsched/internal/trace"
)

// Engine coordinates crash-resilient sweep execution for the figure
// reproductions: points run on a bounded worker pool, panics inside a
// point are contained and retried, completed points are journalled for
// resumption, and cancellation drains cleanly. The zero value (and a
// nil *Engine) is the legacy behaviour: sequential execution, no
// retries, no journal, and the first point error aborts the figure.
//
// Figures pre-allocate their series and each point fills disjoint
// slots, so the final tables are identical whatever order the pool
// happens to run points in.
//
// Points build their simulations through the staged run-builder
// (internal/build) and therefore share the process-wide artifact cache:
// sweep points differing only in policy parameters reuse each other's
// synthesized workloads and failure traces, whichever worker got there
// first. Artifact reuse never changes results — see
// TestSweepColdVsWarmDeterminism.
type Engine struct {
	// Ctx cancels the sweep; nil means context.Background().
	Ctx context.Context
	// Workers bounds concurrent points. 0 means one worker per CPU;
	// 1 forces sequential execution.
	Workers int
	// Retries is how many times a failed or panicking point is retried
	// before it is recorded as failed (its slots become NaN and the
	// sweep continues). 0 means a single attempt.
	Retries int
	// Isolate keeps sibling points alive when one point exhausts its
	// retries: the failure is recorded (see Failures) instead of
	// aborting the figure. Implied by Retries > 0, a Journal, or
	// Resumed state; set it explicitly to isolate without retrying.
	Isolate bool
	// Journal, when non-nil, receives one record per completed point.
	Journal *resilience.Journal
	// Resumed maps resilience.PointKey(figure, key) to records from a
	// previous run's journal; matching points are skipped and their
	// journalled values reused. Resumed points carry no telemetry
	// snapshot (snapshots are not journalled).
	Resumed map[string]resilience.PointRecord
	// CheckInvariants turns on the simulator's conservation guard for
	// every point of the sweep.
	CheckInvariants bool
	// Finder selects the free-partition search algorithm for every
	// point of the sweep by RunConfig.Finder's names ("fast" is another
	// name for "shape"); empty keeps each point's own setting (normally
	// the shape default).
	Finder string
	// AnnealSeed seeds the "anneal" finder's placement search for every
	// point of the sweep (RunConfig.AnnealSeed); 0 keeps each point's
	// own seed. Contention, when non-empty, selects the network-
	// contention preset for every point (RunConfig.Contention).
	AnnealSeed int64
	Contention string
	// TraceDir, when non-empty, writes one NDJSON causal trace per
	// fresh point to <TraceDir>/<figure>-<key>.trace.ndjson (see
	// internal/trace), headed by a meta record identifying the point.
	// Resumed points produce no trace (they do not re-run).
	TraceDir string
	// FlightEvents, when > 0, equips every fresh point's simulation
	// with a kernel flight recorder of that many events, dumping to
	// stderr on an invariant violation and answering SIGQUIT while the
	// point is in flight.
	FlightEvents int

	mu       sync.Mutex
	failures []*resilience.PointError
	resumed  int
}

// context returns the engine's cancellation context.
func (e *Engine) context() context.Context {
	if e == nil || e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// workerCount resolves the pool size; a nil engine is sequential.
func (e *Engine) workerCount() int {
	if e == nil {
		return 1
	}
	if e.Workers == 0 {
		return resilience.DefaultWorkers()
	}
	return e.Workers
}

// isolating reports whether point failures are recorded rather than
// aborting the figure.
func (e *Engine) isolating() bool {
	return e != nil && (e.Isolate || e.Retries > 0 || e.Journal != nil || e.Resumed != nil)
}

// Failures returns the points that exhausted their retries, sorted by
// figure then key. The corresponding table slots hold NaN.
func (e *Engine) Failures() []*resilience.PointError {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*resilience.PointError, len(e.failures))
	copy(out, e.failures)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Figure != out[j].Figure {
			return out[i].Figure < out[j].Figure
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ResumedPoints returns how many points were satisfied from the resume
// journal instead of being re-run.
func (e *Engine) ResumedPoints() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resumed
}

func (e *Engine) recordFailure(pe *resilience.PointError) {
	e.mu.Lock()
	e.failures = append(e.failures, pe)
	e.mu.Unlock()
}

// point is one unit of sweep work: a keyed simulation configuration,
// the computation producing its values, and the writer placing those
// values into pre-allocated table slots. run executes on a pool worker;
// fill must write only slots no other point touches.
type point struct {
	key  string
	cfg  RunConfig
	run  func(ctx context.Context, cfg RunConfig) ([]float64, *telemetry.Snapshot, error)
	fill func(vals []float64, snap *telemetry.Snapshot)
}

// runPoints executes a figure's points through the engine: resumed
// points are filled from the journal, fresh points run on the worker
// pool with panic containment and retries, and completions are
// journalled. The returned error is a cancellation, a journal-write
// failure, or — when the engine is not isolating — the first point
// error.
func (e *Engine) runPoints(figure string, pts []point) error {
	ctx := e.context()
	return resilience.ForEach(ctx, len(pts), e.workerCount(), func(i int) error {
		p := pts[i]
		if e != nil {
			if rec, ok := e.Resumed[resilience.PointKey(figure, p.key)]; ok {
				p.fill(rec.Values, nil)
				e.mu.Lock()
				e.resumed++
				e.mu.Unlock()
				return nil
			}
			if e.CheckInvariants {
				p.cfg.CheckInvariants = true
			}
			if e.Finder != "" {
				p.cfg.Finder = e.Finder
			}
			if e.AnnealSeed != 0 {
				p.cfg.AnnealSeed = e.AnnealSeed
			}
			if e.Contention != "" {
				p.cfg.Contention = e.Contention
			}
			if e.FlightEvents > 0 {
				p.cfg.Flight = trace.NewFlightRecorder(e.FlightEvents, os.Stderr, figure+" "+p.key)
			}
			if e.TraceDir != "" {
				f, err := e.openPointTrace(figure, p.key)
				if err != nil {
					return err
				}
				defer f.Close()
				p.cfg.Trace = trace.New(f, trace.Options{})
				p.cfg.Trace.Meta(
					trace.F("figure", figure), trace.F("point", p.key),
					trace.F("workload", p.cfg.Workload),
					trace.F("scheduler", string(p.cfg.Scheduler)),
					trace.Fint("seed", p.cfg.Seed))
			}
		}

		var vals []float64
		var snap *telemetry.Snapshot
		attempts := 0
		for {
			attempts++
			err := resilience.Safe(func() error {
				var runErr error
				vals, snap, runErr = p.run(ctx, p.cfg)
				return runErr
			})
			if err == nil {
				break
			}
			if resilience.Canceled(err) {
				return err
			}
			retries := 0
			if e != nil {
				retries = e.Retries
			}
			if attempts <= retries {
				continue
			}
			pe := &resilience.PointError{
				Figure: figure, Key: p.key, Seed: p.cfg.Seed, Attempts: attempts, Err: err,
			}
			if !e.isolating() {
				return pe
			}
			e.recordFailure(pe)
			p.fill(nil, nil) // failed: the point's slots become NaN
			return nil
		}
		p.fill(vals, snap)
		if e != nil && e.Journal != nil {
			rec := resilience.PointRecord{Figure: figure, Key: p.key, Seed: p.cfg.Seed, Values: vals}
			if err := e.Journal.Append(rec); err != nil {
				return fmt.Errorf("experiments: journal: %w", err)
			}
		}
		return nil
	})
}

// openPointTrace creates the per-point trace artifact file, creating
// TraceDir on first use.
func (e *Engine) openPointTrace(figure, key string) (*os.File, error) {
	if err := os.MkdirAll(e.TraceDir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: trace dir: %w", err)
	}
	name := figure + "-" + sanitizeKey(key) + ".trace.ndjson"
	f, err := os.Create(filepath.Join(e.TraceDir, name))
	if err != nil {
		return nil, fmt.Errorf("experiments: point trace: %w", err)
	}
	return f, nil
}

// sanitizeKey maps a point key onto a filesystem-safe name: the keys
// use "|" as a field separator and may carry "=" and ".".
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '|', '/', '\\', ':', ' ':
			return '_'
		}
		return r
	}, key)
}

// nanSlots pre-fills a value slice with NaN so slots of points that
// never ran — a cancelled sweep, a failed point — read as "absent"
// rather than as a plausible zero. Completed points overwrite their
// slots; a fully-run figure contains no NaN unless a point failed.
func nanSlots(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = math.NaN()
	}
	return y
}

// newSeries pre-allocates one curve with n point slots (plus telemetry
// slots when collection is on), ready for concurrent slot filling.
func newSeries(name string, n int, opt Options) Series {
	s := Series{Name: name, Y: nanSlots(n)}
	if opt.CollectTelemetry {
		s.Telemetry = make([]*telemetry.Snapshot, n)
	}
	return s
}

// capacitySeries pre-allocates the (utilized, unused, lost) triple of
// a capacity-split table. Snapshots for these figures live on the
// table (the three series share runs), so no series telemetry slots.
func capacitySeries(n int) []Series {
	return []Series{
		{Name: "utilized", Y: nanSlots(n)},
		{Name: "unused", Y: nanSlots(n)},
		{Name: "lost", Y: nanSlots(n)},
	}
}

// allocTelemetry pre-allocates the table's per-x-point snapshot slots
// when collection is on (used by figures whose series share runs).
func (t *Table) allocTelemetry(n int, opt Options) {
	if opt.CollectTelemetry {
		t.Telemetry = make([]*telemetry.Snapshot, n)
	}
}

// metricPoint builds the point computing one aggregated metric value
// into slot xi of series s.
func metricPoint(opt Options, key string, cfg RunConfig, s *Series, xi int) point {
	return point{
		key: key,
		cfg: cfg,
		run: func(ctx context.Context, cfg RunConfig) ([]float64, *telemetry.Snapshot, error) {
			v, snap, err := runMetricPointContext(ctx, opt, cfg)
			if err != nil {
				return nil, nil, err
			}
			return []float64{v}, snap, nil
		},
		fill: func(vals []float64, snap *telemetry.Snapshot) {
			if len(vals) < 1 {
				s.Y[xi] = math.NaN()
				return
			}
			s.Y[xi] = vals[0]
			if s.Telemetry != nil {
				s.Telemetry[xi] = snap
			}
		},
	}
}

// capacityPoint builds the point computing the (utilized, unused,
// lost) capacity split into slot xi of three series, with the shared
// snapshot going to the table's telemetry slot.
func capacityPoint(opt Options, key string, cfg RunConfig, t *Table, util, unused, lost *Series, xi int) point {
	return point{
		key: key,
		cfg: cfg,
		run: func(ctx context.Context, cfg RunConfig) ([]float64, *telemetry.Snapshot, error) {
			u, un, lo, snap, err := runCapacityPoint(ctx, opt, cfg)
			if err != nil {
				return nil, nil, err
			}
			return []float64{u, un, lo}, snap, nil
		},
		fill: func(vals []float64, snap *telemetry.Snapshot) {
			if len(vals) < 3 {
				nan := math.NaN()
				util.Y[xi], unused.Y[xi], lost.Y[xi] = nan, nan, nan
				return
			}
			util.Y[xi], unused.Y[xi], lost.Y[xi] = vals[0], vals[1], vals[2]
			if t.Telemetry != nil {
				t.Telemetry[xi] = snap
			}
		},
	}
}
