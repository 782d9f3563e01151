// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload through the program's public entry
// points for a measuring window, checks every output, and prints a
// single JSON result line with either the end-to-end metrics
// (-trace 0) or the per-layer metrics of a separate traced pass
// (-trace 1). README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload headline-run --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics printed with -trace 0; every workload
// reports each of them (README.md gives the per-workload meaning).
// Times are CPU seconds of the whole process: on a host that steals a
// varying share of the virtual CPUs, wall times of one input moved by
// up to a factor of three between runs, CPU times by about a tenth.
var endToEnd = []metricDef{
	{"op_cpu_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics printed with -trace 1. A layer that does no
// work on a workload reports 0 there.
var perLayer = []metricDef{
	{"build.cold_ms", "ms"},
	{"build.warm_ms", "ms"},
	{"build.cache_hit_ratio", "ratio"},
	{"sim.events", "count"},
	{"sim.us_per_event", "us"},
	{"sim.self_ms", "ms"},
	{"sim.alloc_mb", "MB"},
	{"sim.eventlog_bytes_per_event", "bytes"},
	{"core.decisions", "count"},
	{"core.decision_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.backfill_useful_ratio", "ratio"},
	{"core.finder_calls_per_decision", "ratio"},
	{"core.policy_ms", "ms"},
	{"core.cands_per_choose", "ratio"},
	{"partition.finder_ms", "ms"},
	{"partition.finder_calls", "count"},
	{"partition.cands_per_call", "ratio"},
	{"partition.fast_cache_hit_ratio", "ratio"},
	{"partition.mfp_cache_hit_ratio", "ratio"},
	{"partition.mfp_lookups", "count"},
	{"predict.probes", "count"},
	{"contention.charges", "count"},
	{"trace.records_per_event", "ratio"},
	{"experiments.decision_share", "ratio"},
	{"experiments.failed_points", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.wall_p50_s", "s"},
	{"bench.wall_p90_s", "s"},
	{"service.read_p50_ms", "ms"},
	{"service.read_p90_ms", "ms"},
}

// scale sizes the workloads; the tests run the same code at a tiny
// scale.
type scale struct {
	// A run repeats its set-up at least setupReps times and for at
	// least setupMin; setup_s is the median. The batch workloads' cold
	// starts take milliseconds, so the floor in time gives them hundreds
	// of repetitions.
	setupReps int
	setupMin  time.Duration

	headlineJobs int
	sweepJobs    int

	serveJobs   int
	warmRuns    int           // completed runs the reads target
	coldGap     time.Duration // mean gap between cold submissions
	hitsPerCold int           // cache-hit resubmissions per cold submission
	logsPerCold int           // event-log reads per cold submission
}

// fullScale is what the benchmark runs; README.md explains the sizes.
// The reads per cold submission follow bgload's default traffic: run,
// read and figure weights 6:3:1 over a pool of six run configs, so of
// every 60 run submissions 6 are new to the server and 54 are cache
// hits, beside 30 run reads — 9 hits and 5 reads per cold submission.
var fullScale = scale{
	setupReps: 9, setupMin: 3 * time.Second,
	headlineJobs: 2000,
	sweepJobs:    400,
	serveJobs:    100, warmRuns: 6, coldGap: 180 * time.Millisecond, hitsPerCold: 9, logsPerCold: 5,
}

// config is one invocation's settings.
type config struct {
	name   string // workload name
	seed   int64
	window time.Duration // measuring window of the timed pass
	traced bool          // also run the traced pass and report per-layer metrics
	spans  string        // directory the traced pass writes its spans to
	scale  scale
}

// report is what a workload hands back: operation counts, the
// end-to-end values, and the per-layer values (complete only after a
// traced pass).
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
}

func newReport() *report {
	layers := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		layers[d.name] = 0
	}
	return &report{e2e: map[string]float64{}, layers: layers}
}

// repeat runs op until the window is spent, at least once, and books
// the median CPU time per repetition as op_cpu_s and the wall-time
// quantiles as bench.wall_p50_s and bench.wall_p90_s. An error from op
// ends the pass.
func (r *report) repeat(window time.Duration, op func() error) error {
	var wall, cpu []float64
	for start := time.Now(); len(wall) == 0 || time.Since(start) < window; {
		c0, t0 := cpuTime(), time.Now()
		if err := op(); err != nil {
			return err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
	}
	r.e2e["op_cpu_s"] = quantile(cpu, 0.5)
	r.layers["bench.wall_p50_s"] = quantile(wall, 0.5)
	r.layers["bench.wall_p90_s"] = quantile(wall, 0.9)
	return nil
}

// fail records n failed operations with the reason on stderr, so a
// failed run says what went wrong without aborting the measurement.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: failed operation: "+format+"\n", args...)
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*report, error)
}

var workloads = []workload{
	{"headline-run", runHeadline},
	{"fig6-sweep", runSweep},
	{"serve-mix", runServe},
}

// inPhase tags err with the workload phase it happened in; nil stays
// nil.
func inPhase(phase string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", phase, err)
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "measuring window of the timed pass, in seconds")
	traced := fs.Int("trace", 0, "1 adds the traced pass and prints per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	cfg := config{name: w.name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, spans: *spans, scale: fullScale}
	rep, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", w.name, err)
		return 1
	}
	line, err := rep.line(cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: workload %s: report: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// line renders the result line of the chosen pass.
func (r *report) line(traced bool) ([]byte, error) {
	res, err := r.result(traced)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// result renders the report's metric set for the chosen pass, refusing
// a report that misses a declared metric or carries an undeclared one.
func (r *report) result(traced bool) (result, error) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for k := range vals {
			if _, ok := out.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("undeclared metrics %v", extra)
	}
	if r.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return out, nil
}
