// Command bgtrace generates and inspects the workload and failure
// traces the simulator consumes.
//
// Subcommands:
//
//	bgtrace workload -preset SDSC -jobs 2000 -seed 1 > sdsc.swf
//	bgtrace failures -count 1000 -span-days 30 -seed 1 > failures.csv
//	bgtrace mapfailures -in compute.csv -machine 32x32x64 -block 8x8x8 > failures.csv
//	bgtrace inspect  -swf sdsc.swf
//	bgtrace spans    -in run.trace.ndjson -job 17
//	bgtrace spans    -in run.trace.ndjson -chrome run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"bgsched/internal/failure"
	"bgsched/internal/resilience"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
	"bgsched/internal/workload"
)

func main() {
	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgtrace:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bgtrace <workload|failures|mapfailures|inspect|spans> [flags]")
	}
	// Subcommands are single-shot; honouring cancellation at the
	// boundary keeps a queued Ctrl-C from starting new work.
	if err := ctx.Err(); err != nil {
		return err
	}
	switch args[0] {
	case "workload":
		return genWorkload(args[1:], out)
	case "failures":
		return genFailures(args[1:], out)
	case "inspect":
		return inspect(args[1:], out)
	case "mapfailures":
		return mapFailures(args[1:], out)
	case "spans":
		return spans(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q (want workload, failures, mapfailures, inspect or spans)", args[0])
}

// spans inspects a causal trace (internal/trace NDJSON): a whole-log
// summary, one job's lifecycle timeline, or a Chrome trace_event
// conversion for chrome://tracing / Perfetto.
func spans(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgtrace spans", flag.ContinueOnError)
	in := fs.String("in", "", `NDJSON causal trace to read (required; "-" for stdin)`)
	jobID := fs.Int64("job", 0, "print only this job's lifecycle timeline")
	chrome := fs.String("chrome", "", "also write a Chrome trace_event JSON to this path")
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.Registry()
	return withObs(obs, "bgtrace spans", args, reg, func() error {
		if *in == "" {
			return fmt.Errorf("spans: -in is required")
		}
		var r io.Reader = os.Stdin
		if *in != "-" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		recs, err := trace.ReadLog(r)
		if err != nil {
			return err
		}
		reg.Counter("trace.records.read").Add(int64(len(recs)))
		if *chrome != "" {
			f, err := os.Create(*chrome)
			if err != nil {
				return err
			}
			if err := trace.WriteChrome(f, recs); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "# wrote %d records to %s (load in chrome://tracing or Perfetto)\n", len(recs), *chrome)
		}
		if *jobID != 0 {
			tl := trace.JobTimeline(recs, *jobID)
			if len(tl) == 0 {
				return fmt.Errorf("spans: no records for job %d", *jobID)
			}
			for _, rec := range tl {
				printSpanRecord(out, rec)
			}
			return nil
		}
		return summarizeSpans(out, recs)
	})
}

// printSpanRecord renders one trace record as an aligned text line.
func printSpanRecord(out io.Writer, r trace.Record) {
	fmt.Fprintf(out, "%12.1f  %-10s", r.T, r.Cat+"/"+r.Name)
	if r.Cause != 0 {
		fmt.Fprintf(out, "  cause=%d", r.Cause)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %s=%v", k, r.Extra[k])
	}
	fmt.Fprintln(out)
}

// summarizeSpans prints whole-log statistics: record counts per
// category/name and the set of jobs seen.
func summarizeSpans(out io.Writer, recs []trace.Record) error {
	counts := map[string]int{}
	jobs := map[int64]bool{}
	spanCount := 0
	for _, r := range recs {
		counts[r.Cat+"/"+r.Name]++
		if r.Job != 0 {
			jobs[r.Job] = true
		}
		if r.Span {
			spanCount++
		}
	}
	fmt.Fprintf(out, "records             %d\n", len(recs))
	fmt.Fprintf(out, "jobs traced         %d\n", len(jobs))
	fmt.Fprintf(out, "wall spans          %d\n", spanCount)
	names := make([]string, 0, len(counts))
	for k := range counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-24s %8d\n", k, counts[k])
	}
	return nil
}

// reportIngest surfaces a lenient parse's skipped lines on stderr; the
// paired ingest.* counters travel in the run manifest via the registry.
func reportIngest(what string, rep *resilience.IngestReport) {
	if rep == nil || rep.Skipped == 0 && rep.OutOfOrder == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "bgtrace: %s: skipped %d malformed line(s), %d out of order\n", what, rep.Skipped, rep.OutOfOrder)
	for _, le := range rep.Errors {
		fmt.Fprintf(os.Stderr, "bgtrace: %s: %s\n", what, le.Error())
	}
	if rep.ErrorsTruncated {
		fmt.Fprintf(os.Stderr, "bgtrace: %s: further line errors omitted\n", what)
	}
}

// withObs brackets a subcommand body with the shared observability
// plumbing: the profiling collectors run around fn, and a run manifest
// carrying the registry snapshot is written to -metrics at exit.
func withObs(obs *telemetry.CLIFlags, tool string, args []string, reg *telemetry.Registry, fn func() error) error {
	stopProfiles, err := obs.Start()
	if err != nil {
		return err
	}
	manifest := telemetry.NewManifest(tool, args, nil)
	if err := fn(); err != nil {
		stopProfiles() //nolint:errcheck // the body error wins
		return err
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	return obs.WriteMetrics(manifest, reg)
}

// mapFailures folds a compute-node-level failure trace onto the
// supernode torus the scheduler allocates (BG/L: 32x32x64 compute
// nodes in 8x8x8 blocks -> 4x4x8 supernodes).
func mapFailures(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgtrace mapfailures", flag.ContinueOnError)
	in := fs.String("in", "", "compute-node-level failure CSV (required)")
	machine := fs.String("machine", "32x32x64", "compute-node geometry")
	block := fs.String("block", "8x8x8", "supernode block shape")
	lenient := fs.Bool("lenient", false, "skip malformed trace lines instead of failing fast")
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.Registry()
	return withObs(obs, "bgtrace mapfailures", args, reg, func() error {
		if *in == "" {
			return fmt.Errorf("mapfailures: -in is required")
		}
		compute, err := torus.Parse(*machine)
		if err != nil {
			return err
		}
		blockG, err := torus.Parse(*block)
		if err != nil {
			return err
		}
		m, err := torus.NewSupernodeMap(compute, blockG.Dims)
		if err != nil {
			return err
		}
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, rep, err := failure.ReadCSVWith(f, failure.ReadOptions{Lenient: *lenient, Metrics: reg})
		if err != nil {
			return err
		}
		reportIngest("mapfailures", rep)
		mapped := failure.MapNodes(tr, m.SupernodeOf)
		if len(mapped) < len(tr) {
			fmt.Fprintf(os.Stderr, "bgtrace: dropped %d events outside the %s machine\n", len(tr)-len(mapped), *machine)
		}
		reg.Counter("trace.events.read").Add(int64(len(tr)))
		reg.Counter("trace.events.mapped").Add(int64(len(mapped)))
		reg.Counter("trace.events.dropped").Add(int64(len(tr) - len(mapped)))
		return failure.WriteCSV(out, mapped)
	})
}

func genWorkload(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgtrace workload", flag.ContinueOnError)
	preset := fs.String("preset", "SDSC", "workload preset: NASA, SDSC or LLNL")
	jobs := fs.Int("jobs", 2000, "number of jobs")
	seed := fs.Int64("seed", 1, "random seed")
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.Registry()
	return withObs(obs, "bgtrace workload", args, reg, func() error {
		cfg, err := workload.PresetByName(*preset, *jobs)
		if err != nil {
			return err
		}
		log, err := workload.Synthesize(cfg, *seed)
		if err != nil {
			return err
		}
		reg.Counter("trace.jobs.written").Add(int64(len(log.Jobs)))
		reg.Gauge("trace.span_days").Set(log.Span() / 86400)
		return workload.WriteSWF(out, log)
	})
}

func genFailures(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgtrace failures", flag.ContinueOnError)
	nodes := fs.Int("nodes", 128, "machine size in (super)nodes")
	count := fs.Int("count", 1000, "number of failure events")
	spanDays := fs.Float64("span-days", 30, "trace span in days")
	burst := fs.Float64("burst", 0.35, "probability a failure seeds a burst")
	skew := fs.Float64("skew", 1.2, "per-node hazard skew exponent (0 = uniform)")
	seed := fs.Int64("seed", 1, "random seed")
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.Registry()
	return withObs(obs, "bgtrace failures", args, reg, func() error {
		cfg := failure.DefaultGeneratorConfig(*nodes, *count, *spanDays*86400)
		cfg.BurstProb = *burst
		cfg.NodeSkew = *skew
		tr, err := failure.Generate(cfg, *seed)
		if err != nil {
			return err
		}
		reg.Counter("trace.failures.written").Add(int64(len(tr)))
		return failure.WriteCSV(out, tr)
	})
}

func inspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgtrace inspect", flag.ContinueOnError)
	swf := fs.String("swf", "", "SWF job log to inspect")
	failuresCSV := fs.String("failures", "", "failure CSV to inspect")
	lenient := fs.Bool("lenient", false, "skip malformed trace lines instead of failing fast")
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := obs.Registry()
	return withObs(obs, "bgtrace inspect", args, reg, func() error {
		switch {
		case *swf != "":
			f, err := os.Open(*swf)
			if err != nil {
				return err
			}
			defer f.Close()
			log, rep, err := workload.ReadSWFWith(f, *swf, workload.ReadOptions{Lenient: *lenient, Metrics: reg})
			if err != nil {
				return err
			}
			reportIngest("inspect", rep)
			reg.Counter("trace.jobs.read").Add(int64(len(log.Jobs)))
			return inspectLog(out, log)
		case *failuresCSV != "":
			f, err := os.Open(*failuresCSV)
			if err != nil {
				return err
			}
			defer f.Close()
			tr, rep, err := failure.ReadCSVWith(f, failure.ReadOptions{Lenient: *lenient, Metrics: reg})
			if err != nil {
				return err
			}
			reportIngest("inspect", rep)
			reg.Counter("trace.failures.read").Add(int64(len(tr)))
			return inspectFailures(out, tr)
		}
		return fmt.Errorf("inspect: pass -swf or -failures")
	})
}

func inspectLog(out io.Writer, log *workload.Log) error {
	var runs, sizes []float64
	for _, j := range log.Jobs {
		if j.Run > 0 && j.Procs > 0 {
			runs = append(runs, j.Run)
			sizes = append(sizes, float64(j.Procs))
		}
	}
	fmt.Fprintf(out, "log                 %s\n", log.Name)
	fmt.Fprintf(out, "machine nodes       %d\n", log.MachineNodes)
	fmt.Fprintf(out, "jobs                %d (%d usable)\n", len(log.Jobs), len(runs))
	fmt.Fprintf(out, "span                %.1f days\n", log.Span()/86400)
	fmt.Fprintf(out, "offered load        %.3f\n", log.OfferedLoad(log.MachineNodes))
	fmt.Fprintf(out, "runtime s           %s\n", distLine(runs))
	fmt.Fprintf(out, "size nodes          %s\n", distLine(sizes))
	if stats, err := workload.Analyze(log); err == nil {
		fmt.Fprintf(out, "character           pow2=%.0f%% runtimeCV=%.1f arrivalCV=%.1f diurnal=%.1fx\n",
			stats.PowerOfTwo*100, stats.RuntimeCV, stats.InterarrCV, stats.DiurnalIndex)
	}
	return nil
}

func inspectFailures(out io.Writer, tr failure.Trace) error {
	if len(tr) == 0 {
		fmt.Fprintln(out, "empty trace")
		return nil
	}
	perNode := map[int]int{}
	for _, e := range tr {
		perNode[e.Node]++
	}
	counts := make([]int, 0, len(perNode))
	for _, c := range perNode {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	n := len(counts) / 10
	if n == 0 {
		n = 1
	}
	for _, c := range counts[:n] {
		top += c
	}
	span := tr[len(tr)-1].Time - tr[0].Time
	fmt.Fprintf(out, "events              %d\n", len(tr))
	fmt.Fprintf(out, "span                %.1f days\n", span/86400)
	fmt.Fprintf(out, "rate                %.2f failures/day\n", float64(len(tr))/(span/86400))
	fmt.Fprintf(out, "nodes affected      %d\n", len(perNode))
	fmt.Fprintf(out, "top-decile share    %.0f%%\n", 100*float64(top)/float64(len(tr)))
	return nil
}

// distLine summarises a sample as min/median/mean/p90/max.
func distLine(vals []float64) string {
	if len(vals) == 0 {
		return "n/a"
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	mean := 0.0
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(len(sorted))
	q := func(p float64) float64 {
		i := int(math.Round(p * float64(len(sorted)-1)))
		return sorted[i]
	}
	return fmt.Sprintf("min=%.0f p50=%.0f mean=%.0f p90=%.0f max=%.0f",
		sorted[0], q(0.5), mean, q(0.9), sorted[len(sorted)-1])
}
