// Command bgsim runs a single fault-aware scheduling simulation and
// prints its metrics.
//
// Examples:
//
//	bgsim -workload SDSC -jobs 2000 -sched balancing -a 0.1 -failures 1000
//	bgsim -workload LLNL -c 1.2 -sched tiebreak -a 0.5 -failures 1000
//	bgsim -sched baseline -failures 1000 -migration
//	bgsim -sched balancing -a 0.3 -failures 1000 -ckpt-interval 3600 -ckpt-overhead 60
//	bgsim -failures 1000 -trace-out run.ndjson -trace-chrome run.json -flight 256
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"time"

	"bgsched/internal/core"
	"bgsched/internal/experiments"
	"bgsched/internal/metrics"
	"bgsched/internal/resilience"
	"bgsched/internal/sim"
	"bgsched/internal/snapshot"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
)

func main() {
	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bgsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgsim", flag.ContinueOnError)
	var (
		machine   = fs.String("machine", "4x4x8", "machine geometry, e.g. 4x4x8 or 8x8x8/mesh (load is relative to the traced machine, not this one)")
		wl        = fs.String("workload", "SDSC", "workload preset: NASA, SDSC or LLNL")
		jobs      = fs.Int("jobs", 2000, "number of jobs in the synthetic log")
		c         = fs.Float64("c", 1.0, "load-scaling coefficient applied to execution times")
		failures  = fs.Int("failures", 0, "nominal failure count (paper axis units; 0 = fault-free)")
		fscale    = fs.Float64("failure-scale", 0, "override nominal->injected mapping (injected = nominal*scale)")
		sched     = fs.String("sched", "baseline", "scheduler: baseline, balancing, tiebreak, balancing-learned or tiebreak-learned")
		a         = fs.Float64("a", 0, "prediction confidence (balancing) or accuracy (tiebreak)")
		estFactor = fs.Float64("estimate-factor", 1, "user estimates = actual * U[1, factor]; 1 = exact (paper model)")
		combine   = fs.String("combine", "independent", "balancing P_f combiner: independent or max")
		backfill  = fs.String("backfill", "easy", "backfill mode: none, aggressive or easy")
		migration = fs.Bool("migration", false, "enable the migration (compaction) pass")
		migCost   = fs.Float64("migration-cost", 0, "checkpoint/restart delay charged per migration")
		downtime  = fs.Float64("downtime", 0, "seconds a failed node stays out of service")
		seed      = fs.Int64("seed", 1, "random seed for workload and failure generation")

		finder     = fs.String("finder", "shape", "partition search algorithm: naive, pop, shape or anneal (communication-aware placement); fast is another name for shape")
		annealSeed = fs.Int64("anneal-seed", 0, "seed for the anneal finder's placement search (must be >= 0; ignored by other finders)")
		cont       = fs.String("contention", "off", "network-contention preset: off, low, medium or high")

		ckptInterval = fs.Float64("ckpt-interval", 0, "periodic checkpoint interval seconds (0 = off)")
		ckptPredict  = fs.Bool("ckpt-predictive", false, "use prediction-triggered checkpointing")
		ckptOverhead = fs.Float64("ckpt-overhead", 0, "seconds of overhead per checkpoint")
		ckptRestart  = fs.Float64("ckpt-restart", 0, "seconds to restore from a checkpoint")

		check    = fs.Bool("check", false, "validate simulator conservation invariants at every event")
		rate     = fs.Bool("rate", false, "append wall-clock event throughput to the summary (nondeterministic; leave off where outputs are byte-compared)")
		timeline = fs.Int("timeline", 0, "print a machine-state timeline with this many buckets")
		byClass  = fs.Bool("by-class", false, "print metrics broken down by job size class")
		eventLog = fs.String("eventlog", "", "write a JSONL simulation event log to this file")

		snapAt       = fs.Int64("snapshot-at", 0, "capture a full simulator snapshot at this event seq, then continue to completion (requires -snapshot-out)")
		snapOut      = fs.String("snapshot-out", "", "file to write the snapshot to; created only once the snapshot point is actually reached")
		restoreFile  = fs.String("restore", "", "resume from a snapshot file instead of starting fresh (workload/failure flags are taken from the snapshot)")
		branchPolicy = fs.String("branch-policy", "", "with -restore: replay the suffix under this scheduler instead of the parent's")
		branchA      = fs.Float64("branch-a", -1, "with -restore: replay with this prediction confidence/accuracy (<0 keeps the parent's)")
		branchFinder = fs.String("branch-finder", "", "with -restore: replay with this partition finder")

		traceOut    = fs.String("trace-out", "", "write the NDJSON causal trace (per-job lifecycle records) to this file")
		traceChrome = fs.String("trace-chrome", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
		traceWall   = fs.Bool("trace-wall", false, "include wall-clock spans (build stages, sim run) in the trace; off keeps traces byte-reproducible")
		flight      = fs.Int("flight", 0, "keep a kernel flight recorder of the last N events, dumped to stderr on invariant violation, contained panic or SIGQUIT (0 = off)")
	)
	obs := telemetry.RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.RunConfig{
		Machine:        *machine,
		Workload:       *wl,
		JobCount:       *jobs,
		LoadScale:      *c,
		EstimateFactor: *estFactor,
		FailureNominal: *failures,
		FailureScale:   *fscale,
		Scheduler:      experiments.SchedulerKind(*sched),
		Param:          *a,
		Migration:      *migration,
		MigrationCost:  *migCost,
		Downtime:       *downtime,
		Seed:           *seed,
		Finder:         *finder,
		AnnealSeed:     *annealSeed,
		Contention:     *cont,

		CheckpointInterval:   *ckptInterval,
		CheckpointPredictive: *ckptPredict,
		CheckpointOverhead:   *ckptOverhead,
		CheckpointRestart:    *ckptRestart,

		RecordTimeline:  *timeline > 0,
		CheckInvariants: *check,
	}
	switch *combine {
	case "independent":
	case "max":
		cfg.CombineMax = true
	default:
		return fmt.Errorf("unknown combiner %q", *combine)
	}
	switch *backfill {
	case "easy":
		cfg.Backfill = core.BackfillEASY
	case "aggressive":
		cfg.Backfill = core.BackfillAggressive
	case "none":
		cfg.BackfillStrict = true
	default:
		return fmt.Errorf("unknown backfill mode %q", *backfill)
	}

	// The one gate every run config passes (the service applies the
	// same), on the config as given and with any -branch-* overlay on
	// it, before a profile starts or an output file is created.
	if err := cfg.Validate(); err != nil {
		return err
	}
	var br experiments.Branch
	if *branchPolicy != "" {
		br.Scheduler = experiments.SchedulerKind(*branchPolicy)
	}
	if *branchA >= 0 {
		br.Param = branchA
	}
	if *branchFinder != "" {
		br.Finder = *branchFinder
	}
	if err := br.Apply(cfg).Validate(); err != nil {
		return fmt.Errorf("branch: %w", err)
	}
	stopProfiles, err := obs.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "bgsim:", perr)
		}
	}()

	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "bgsim: closing event log:", cerr)
			}
		}()
		cfg.EventLog = f
	}
	// The causal trace feeds the NDJSON file, the Chrome exporter, or
	// both from a single tracer; the Chrome path buffers records in
	// memory and converts after the run.
	var chromeBuf bytes.Buffer
	var traceTo []io.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "bgsim: closing trace:", cerr)
			}
		}()
		traceTo = append(traceTo, f)
	}
	if *traceChrome != "" {
		traceTo = append(traceTo, &chromeBuf)
	}
	if len(traceTo) > 0 {
		cfg.Trace = trace.New(io.MultiWriter(traceTo...), trace.Options{WallSpans: *traceWall})
	}
	if *flight > 0 {
		cfg.Flight = trace.NewFlightRecorder(*flight, os.Stderr, "bgsim")
		trace.InstallFlightSignalDump()
		trace.InstallFlightPanicDump()
	}
	cfg.Telemetry = obs.Registry()

	var res sim.Result
	// Wall timer for the -rate line; alreadyDispatched discounts the
	// events a restored snapshot replays on the parent's budget, so the
	// throughput is events actually processed by this invocation.
	wallStart := time.Now()
	var alreadyDispatched int64
	switch {
	case *restoreFile != "":
		if *snapAt > 0 || *snapOut != "" {
			return fmt.Errorf("-restore cannot be combined with -snapshot-at/-snapshot-out")
		}
		f, err := os.Open(*restoreFile)
		if err != nil {
			return err
		}
		st, _, err := snapshot.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("restore %s: %w", *restoreFile, err)
		}
		parent, err := experiments.ParentConfig(st)
		if err != nil {
			return fmt.Errorf("restore %s: %w", *restoreFile, err)
		}
		// The snapshot defines the world and policy baseline; the flag-built
		// config contributes only observability wiring.
		rcfg := br.Apply(parent)
		rcfg.EventLog = cfg.EventLog
		rcfg.Trace = cfg.Trace
		rcfg.Flight = cfg.Flight
		rcfg.Telemetry = cfg.Telemetry
		rcfg.RecordTimeline = cfg.RecordTimeline
		rcfg.CheckInvariants = cfg.CheckInvariants
		cfg = rcfg
		alreadyDispatched = st.Dispatched
		fmt.Fprintf(out, "restored            %s at event %d (t=%.1f)%s\n",
			*restoreFile, st.Dispatched, st.Now, branchNote(br))
		res, err = experiments.ResumeFromSnapshot(ctx, cfg, st)
		if err != nil {
			if resilience.Canceled(err) {
				return fmt.Errorf("interrupted before completion (no metrics written): %w", err)
			}
			return err
		}
	case *snapAt > 0 || *snapOut != "":
		if *snapAt <= 0 || *snapOut == "" {
			return fmt.Errorf("-snapshot-at and -snapshot-out must be used together")
		}
		// Capture first, write the file, then replay the suffix from the
		// captured state: an interrupt before the snapshot point fails the
		// whole command without ever creating the output file, and an
		// interrupt after it still leaves a complete snapshot on disk.
		st, err := experiments.SnapshotAt(ctx, cfg, *snapAt)
		if err != nil {
			return err
		}
		var enc bytes.Buffer
		hash, err := st.Encode(&enc)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*snapOut, enc.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "snapshot            %s at event %d (t=%.1f, sha256 %.12s)\n",
			*snapOut, st.Dispatched, st.Now, hash)
		res, err = experiments.ResumeFromSnapshot(ctx, cfg, st)
		if err != nil {
			if resilience.Canceled(err) {
				return fmt.Errorf("interrupted before completion (no metrics written): %w", err)
			}
			return err
		}
	default:
		var err error
		res, err = experiments.RunContext(ctx, cfg)
		if err != nil {
			if resilience.Canceled(err) {
				return fmt.Errorf("interrupted before completion (no metrics written): %w", err)
			}
			return err
		}
	}

	wall := time.Since(wallStart)

	manifest := telemetry.NewManifest("bgsim", args, cfg)
	manifest.Seed = cfg.Seed
	if err := obs.WriteMetrics(manifest, cfg.Telemetry); err != nil {
		return err
	}
	if *traceChrome != "" {
		recs, err := trace.ReadLog(&chromeBuf)
		if err != nil {
			return fmt.Errorf("trace-chrome: %w", err)
		}
		f, err := os.Create(*traceChrome)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, recs); err != nil {
			f.Close()
			return fmt.Errorf("trace-chrome: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	// Printed from cfg, not the raw flags: under -restore the effective
	// configuration comes from the snapshot plus branch overrides.
	s := res.Summary
	fmt.Fprintf(out, "workload            %s (jobs=%d, c=%.2f, seed=%d)\n", cfg.Workload, cfg.JobCount, cfg.LoadScale, cfg.Seed)
	fmt.Fprintf(out, "scheduler           %s (a=%.2f, backfill=%s, migration=%v)\n", cfg.Scheduler, cfg.Param, cfg.Backfill, cfg.Migration)
	fmt.Fprintf(out, "failures            nominal=%d delivered=%d kills=%d\n", cfg.FailureNominal, res.FailureEvents, res.JobKills)
	fmt.Fprintf(out, "events dispatched   %d\n", res.EventsDispatched)
	if *rate {
		processed := res.EventsDispatched - alreadyDispatched
		fmt.Fprintf(out, "throughput          %.0f events/sec (%d events in %.2f s wall, incl. build)\n",
			float64(processed)/wall.Seconds(), processed, wall.Seconds())
	}
	fmt.Fprintf(out, "jobs finished       %d\n", s.Jobs)
	fmt.Fprintf(out, "avg wait            %.1f s\n", s.AvgWait)
	fmt.Fprintf(out, "avg response        %.1f s\n", s.AvgResponse)
	fmt.Fprintf(out, "avg bounded slowdown %.2f (median %.2f, max %.2f)\n", s.AvgSlowdown, s.MedianSlowdown, s.MaxSlowdown)
	fmt.Fprintf(out, "makespan            %.1f h\n", s.MakespanSeconds/3600)
	fmt.Fprintf(out, "capacity            utilized=%.3f unused=%.3f lost=%.3f\n", s.Utilization, s.UnusedCapacity, s.LostCapacity)
	fmt.Fprintf(out, "restarts            %d (lost work %.0f node-s)\n", s.TotalRestarts, s.LostWorkNodeSec)
	if res.Migrations > 0 || res.Checkpoints > 0 || res.Backfills > 0 {
		fmt.Fprintf(out, "events              backfills=%d migrations=%d checkpoints=%d\n",
			res.Backfills, res.Migrations, res.Checkpoints)
	}
	if res.ContentionCharges > 0 {
		fmt.Fprintf(out, "contention          charges=%d dilation=%.0f s\n",
			res.ContentionCharges, res.DilationSeconds)
	}
	if *byClass {
		classes, err := metrics.BySizeClass(res.Outcomes, metrics.DefaultSizeBounds)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%-10s %8s %12s %12s %12s %10s\n",
			"size", "jobs", "slowdown", "wait s", "response s", "restarts")
		for _, c := range classes {
			fmt.Fprintf(out, "%-10s %8d %12.2f %12.0f %12.0f %10d\n",
				c.Label(), c.Jobs, c.AvgSlowdown, c.AvgWait, c.AvgResponse, c.Restarts)
		}
	}
	if *timeline > 0 {
		g, err := torus.Parse(cfg.Machine)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		if err := sim.RenderTimeline(out, res.Timeline, g.N(), *timeline); err != nil {
			return err
		}
	}
	return nil
}

// branchNote renders the overrides a -restore replay applies, for the
// "restored" banner line. Empty for a faithful (no-op) replay.
func branchNote(br experiments.Branch) string {
	if br.IsZero() {
		return ""
	}
	note := " branching"
	if br.Scheduler != "" {
		note += fmt.Sprintf(" sched=%s", br.Scheduler)
	}
	if br.Param != nil {
		note += fmt.Sprintf(" a=%.2f", *br.Param)
	}
	if br.Finder != "" {
		note += fmt.Sprintf(" finder=%s", br.Finder)
	}
	return note
}
