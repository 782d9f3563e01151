// Command bgsweep regenerates the paper's evaluation figures as data
// tables.
//
// Examples:
//
//	bgsweep -fig fig3                # one figure, aligned text
//	bgsweep -fig all -jobs 800       # every figure at reduced scale
//	bgsweep -fig fig6 -csv           # CSV output for plotting
//	bgsweep -fig finders             # partition-finder timing comparison
//	bgsweep -fig fig3 -journal s.jsonl   # journal completed points
//	bgsweep -fig fig3 -resume s.jsonl    # skip journalled points
//	bgsweep -tournament -jobs 100        # placement-policy tournament
//	bgsweep -fig fig3 -finder anneal -contention medium  # contention-aware sweep
//
// Sweeps run points on a bounded worker pool (-workers) with per-point
// panic containment: a point that keeps failing after -retries extra
// attempts is reported and its table slots become NaN, without taking
// down sibling points. SIGINT/SIGTERM drains gracefully: completed
// figures and the telemetry manifest are flushed, and with -journal
// the finished points of the interrupted figure are resumable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"bgsched/internal/experiments"
	"bgsched/internal/partition"
	"bgsched/internal/resilience"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
)

func main() {
	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgsweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgsweep", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", `figure to regenerate: fig3..fig10, "finders", "krevat", "learned", "golden", or "all"`)
		jobs    = fs.Int("jobs", 2000, "jobs per simulation run")
		seed    = fs.Int64("seed", 1, "random seed")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		plot    = fs.Bool("plot", false, "render an ASCII chart after each table")
		metric  = fs.String("metric", "slowdown", "timing-figure metric: slowdown, response or wait")
		reps    = fs.Int("reps", 3, "replications (seeds) per sweep point")
		agg     = fs.String("agg", "median", "replicate aggregation: median or mean")
		fscale  = fs.Float64("failure-scale", 0, "override nominal->injected failure mapping")
		workers = fs.Int("workers", 0, "concurrent sweep points (0 = one per CPU, 1 = sequential)")
		retries = fs.Int("retries", 1, "extra attempts before a failing point is recorded as failed")
		journal = fs.String("journal", "", "write completed points to this JSONL journal (truncates)")
		resume  = fs.String("resume", "", "resume from this journal: skip its completed points, append new ones")
		check   = fs.Bool("check", false, "validate simulator conservation invariants at every event")

		finder     = fs.String("finder", "", "partition search algorithm for every sweep point: naive, pop, shape or anneal (empty = shape default; fast is another name for shape)")
		annealSeed = fs.Int64("anneal-seed", 0, "anneal finder placement-search seed for every sweep point (must be >= 0; 0 keeps per-point defaults)")
		cont       = fs.String("contention", "", "network-contention preset for every sweep point: off, low, medium or high (empty = off)")
		tournament = fs.Bool("tournament", false, "run the placement-policy tournament (every finder x workload x contention) instead of -fig")

		traceDir = fs.String("trace-dir", "", "write one NDJSON causal trace per sweep point into this directory")
		flight   = fs.Int("flight", 0, "kernel flight recorder of the last N events per in-flight point, dumped to stderr on invariant violation, contained panic or SIGQUIT (0 = off)")
	)
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := experiments.Options{
		JobCount: *jobs, Seed: *seed, FailureScale: *fscale,
		Metric: *metric, Replications: *reps, Aggregate: *agg,
		// With -metrics, every sweep point gets its own registry and the
		// resulting tables carry per-point snapshots into the manifest.
		CollectTelemetry: obs.Metrics != "",
	}
	// The gates the service applies, before any point runs: the figure
	// options, and the per-point overlay on an otherwise default config.
	if err := opt.Validate(); err != nil {
		return err
	}
	overlay := experiments.RunConfig{Finder: *finder, AnnealSeed: *annealSeed, Contention: *cont}
	if err := overlay.Validate(); err != nil {
		return err
	}
	stopProfiles, err := obs.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "bgsweep:", perr)
		}
	}()
	manifest := telemetry.NewManifest("bgsweep", args, opt)
	manifest.Seed = *seed

	eng := &experiments.Engine{
		Ctx: ctx, Workers: *workers, Retries: *retries,
		Isolate: true, CheckInvariants: *check,
		Finder: *finder, AnnealSeed: *annealSeed, Contention: *cont,
		TraceDir: *traceDir, FlightEvents: *flight,
	}
	if *flight > 0 {
		trace.InstallFlightSignalDump()
		trace.InstallFlightPanicDump()
	}
	jnl, err := openJournal(*journal, *resume, telemetry.ConfigHash(opt), eng)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := jnl.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "bgsweep: journal:", cerr)
		}
	}()
	eng.Journal = jnl

	var collected []*experiments.Table

	if *fig == "finders" {
		if err := finderComparison(out); err != nil {
			return err
		}
		return obs.WriteMetrics(manifest, nil)
	}

	var sweepErr error
	render := func(t *experiments.Table) error {
		if *csv {
			return t.RenderCSV(out)
		}
		if err := t.Render(out); err != nil {
			return err
		}
		if *plot {
			fmt.Fprintln(out)
			return t.RenderPlot(out, 12)
		}
		return nil
	}
	switch {
	case *tournament:
		t, err := experiments.Tournament(eng, experiments.TournamentOptions{
			JobCount: *jobs, Seed: *seed, AnnealSeed: *annealSeed,
		})
		if t != nil {
			collected = append(collected, t)
		}
		if err != nil {
			sweepErr = err
			break
		}
		if err := render(t); err != nil {
			return err
		}
	case *fig == "krevat":
		t, err := experiments.KrevatTable(eng, opt, "SDSC", 1.0)
		if t != nil {
			collected = append(collected, t)
		}
		if err != nil {
			sweepErr = err
			break
		}
		if err := render(t); err != nil {
			return err
		}
		fmt.Fprintln(out, "variants: 0=fcfs 1=fcfs+backfill 2=fcfs+migration 3=fcfs+backfill+migration")
	case *fig == "golden":
		// The frozen six-point digest grid — mainly useful with
		// -trace-dir (per-point causal traces, see `make trace-demo`).
		t, err := experiments.GoldenSweep(eng)
		if t != nil {
			collected = append(collected, t)
		}
		if err != nil {
			sweepErr = err
			break
		}
		if err := render(t); err != nil {
			return err
		}
	case *fig == "learned":
		t, err := experiments.LearnedSweep(eng, opt, "SDSC")
		if t != nil {
			collected = append(collected, t)
		}
		if err != nil {
			sweepErr = err
			break
		}
		if err := render(t); err != nil {
			return err
		}
	default:
		var specs []experiments.Spec
		if *fig == "all" {
			specs = experiments.Specs
		} else {
			spec, err := experiments.SpecByID(*fig)
			if err != nil {
				return err
			}
			specs = []experiments.Spec{spec}
		}
		for _, spec := range specs {
			start := time.Now()
			tables, err := spec.Run(eng, opt)
			// Figures return their partially-filled tables alongside a
			// cancellation (never-run slots hold NaN), so an interrupted
			// sweep still flushes what completed into the manifest.
			collected = append(collected, tables...)
			if err != nil {
				sweepErr = fmt.Errorf("%s: %w", spec.ID, err)
				break
			}
			for _, t := range tables {
				if err := render(t); err != nil {
					return err
				}
				fmt.Fprintln(out)
			}
			fmt.Fprintf(out, "# %s completed in %v\n\n", spec.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	// Graceful drain: whatever happened above, flush the completed
	// tables into the manifest and report the sweep's health before
	// returning. A cancelled sweep keeps its journal valid for -resume.
	if n := eng.ResumedPoints(); n > 0 {
		fmt.Fprintf(out, "# resumed %d completed points from %s\n", n, *resume)
	}
	failures := eng.Failures()
	for _, pe := range failures {
		fmt.Fprintln(os.Stderr, "bgsweep: failed point:", pe)
	}
	if merr := writeSweepMetrics(obs, manifest, collected); merr != nil && sweepErr == nil {
		sweepErr = merr
	}
	if sweepErr != nil {
		if resilience.Canceled(sweepErr) {
			return fmt.Errorf("interrupted (%d tables flushed, journal %q resumable): %w",
				len(collected), jnl.Path(), sweepErr)
		}
		return sweepErr
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d sweep point(s) failed permanently", len(failures))
	}
	return nil
}

// openJournal wires the resume-journal flags: -resume validates the
// existing journal's config hash, loads its completed points into the
// engine, and reopens it for appending; -journal starts a fresh one.
func openJournal(journalPath, resumePath, hash string, eng *experiments.Engine) (*resilience.Journal, error) {
	switch {
	case resumePath != "" && journalPath != "":
		return nil, errors.New("-journal and -resume are mutually exclusive; -resume already appends")
	case resumePath != "":
		jc, err := resilience.ReadJournal(resumePath)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		if jc.Meta.ConfigHash != hash {
			return nil, fmt.Errorf("resume: journal %s was written for config %s, current config is %s (same flags required)",
				resumePath, jc.Meta.ConfigHash, hash)
		}
		if jc.Malformed > 0 {
			fmt.Fprintf(os.Stderr, "bgsweep: resume: ignoring %d corrupt journal line(s)\n", jc.Malformed)
		}
		eng.Resumed = jc.Points
		return resilience.OpenJournalAppend(resumePath)
	case journalPath != "":
		return resilience.CreateJournal(journalPath, resilience.JournalMeta{Tool: "bgsweep", ConfigHash: hash})
	}
	return nil, nil
}

// writeSweepMetrics attaches the sweep tables — each point annotated
// with its telemetry snapshot — to the run manifest and writes it to
// the -metrics path (a no-op without -metrics).
func writeSweepMetrics(obs *telemetry.CLIFlags, m *telemetry.Manifest, tables []*experiments.Table) error {
	if len(tables) > 0 {
		m.Artifacts = tables
	}
	return obs.WriteMetrics(m, nil)
}

// finderComparison times the partition-finder algorithms on random
// occupancies — the asymptotic comparison of Section 5 and Appendix 9
// (naive O(M^9), POP O(M^5), shape O(M^3 f(s)^3)). The gap is invisible
// on the paper's 4x4x8 scheduling view, so the table also measures
// larger machines, where the naive finder collapses.
func finderComparison(out io.Writer) error {
	finders := []partition.Finder{partition.NaiveFinder{}, partition.POPFinder{}, partition.ShapeFinder{}}
	machines := []string{"4x4x8", "8x8x8", "16x16x16"}
	fills := []float64{0.0, 0.3}
	sizes := []int{8, 64}

	fmt.Fprintln(out, "Partition-finder comparison (ns/op)")
	fmt.Fprintf(out, "%-10s %-6s %-6s %12s %12s %12s\n",
		"machine", "fill", "size", "naive", "pop", "shape")
	for _, spec := range machines {
		g, err := torus.Parse(spec)
		if err != nil {
			return err
		}
		for _, fill := range fills {
			gr := torus.NewGrid(g)
			rng := rand.New(rand.NewSource(7))
			owner := int64(1)
			for id := 0; id < g.N(); id++ {
				if rng.Float64() < fill {
					c := g.CoordOf(id)
					if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, owner); err != nil {
						return err
					}
					owner++
				}
			}
			for _, size := range sizes {
				fmt.Fprintf(out, "%-10s %-6.1f %-6d", spec, fill, size)
				for _, f := range finders {
					fmt.Fprintf(out, " %12d", timeFinder(f, gr, size))
				}
				fmt.Fprintln(out)
			}
		}
	}
	return nil
}

// timeFinder measures ns/op with an adaptive iteration count (~100 ms
// per cell), since costs span four orders of magnitude across machine
// sizes.
func timeFinder(f partition.Finder, gr *torus.Grid, size int) int64 {
	const budget = 100 * time.Millisecond
	iters := 0
	start := time.Now()
	for time.Since(start) < budget {
		f.FreeOfSize(gr, size)
		iters++
	}
	return time.Since(start).Nanoseconds() / int64(iters)
}
