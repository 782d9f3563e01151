// Package build turns one experiment configuration into one executable
// simulation through an explicit staged pipeline:
//
//	RunConfig ─→ Geometry ─→ WorkloadLog ─→ Jobs ──┐
//	                  │            └─→ FailureTrace ─→ FailureIndex ─→ Policy/Finder ─→ sim.Config
//
// Every stage is an immutable artifact keyed by the canonical hash of
// only the sub-configuration it depends on, and the keyed stages
// (workload log, jobs, failure trace, failure index) are memoised in a
// process-wide bounded LRU (Cache / Shared). The paper's evaluation is
// hundreds of sweep points that differ only in policy, confidence or
// failure count; under this pipeline such points rebuild only the
// policy layer and reuse everything upstream, so a warm sweep point
// skips workload synthesis and trace generation entirely.
//
// Stage artifacts handed out by the cache are shared across concurrent
// runs and must be treated as immutable; the one stage whose output the
// simulator feeds into mutable bookkeeping (jobs) stores a master copy
// and materialises a fresh clone per run.
package build

import (
	"fmt"
	"io"
	"math"

	"bgsched/internal/checkpoint"
	"bgsched/internal/contention"
	"bgsched/internal/core"
	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
	"bgsched/internal/workload"
)

// SchedulerKind names the scheduling algorithm under test.
type SchedulerKind string

const (
	// SchedBaseline is Krevat's fault-unaware FCFS + MFP scheduler.
	SchedBaseline SchedulerKind = "baseline"
	// SchedBalancing is the paper's balancing algorithm (Section 5.2.1).
	SchedBalancing SchedulerKind = "balancing"
	// SchedTieBreak is the paper's tie-breaking algorithm (Section 5.2.2).
	SchedTieBreak SchedulerKind = "tiebreak"
	// SchedBalancingLearned drives the balancing algorithm with the
	// history-trained statistical predictor (predict.Learned) instead
	// of the paper's log-oracle-with-knob; Param is ignored.
	SchedBalancingLearned SchedulerKind = "balancing-learned"
	// SchedTieBreakLearned drives the tie-breaking algorithm with the
	// learned predictor's boolean oracle; Param is ignored.
	SchedTieBreakLearned SchedulerKind = "tiebreak-learned"
)

// DefaultFailuresPerDay is the injected failure density, in failures
// per machine-day, corresponding to a nominal count of 100 on the
// paper's x-axes.
const DefaultFailuresPerDay = 1.0

// QueueDrainSlack stretches the simulated horizon past the last job
// submission: failure traces are generated over (and nominal failure
// counts are scaled to) log.Span() * QueueDrainSlack, leaving slack for
// the queue to drain after the final arrival so late-running jobs stay
// exposed to failures. The value is part of the reproduction's frozen
// semantics — changing it moves every failure trace and re-pins every
// golden digest.
const QueueDrainSlack = 1.1

// RunConfig fully describes one simulation run.
type RunConfig struct {
	// Machine is the geometry spec (torus.Parse format); empty means
	// the paper's 4x4x8 supernode torus.
	Machine string

	Workload  string  // "NASA", "SDSC" or "LLNL"
	JobCount  int     // synthetic log length
	LoadScale float64 // the paper's load coefficient c

	// EstimateFactor makes user estimates inexact: requested times are
	// actual times multiplied by a uniform factor in
	// [1, EstimateFactor]. Zero or 1 keeps the paper's exact-estimate
	// model. Inexact estimates loosen EASY reservations and stretch
	// the predictors' query windows.
	EstimateFactor float64

	// FailureNominal is the failure count in the paper's axis units;
	// it is rescaled to the synthetic span (see the experiments package
	// comment). FailureScale overrides the default density mapping when
	// > 0: injected = round(nominal * FailureScale).
	FailureNominal int
	FailureScale   float64

	Scheduler SchedulerKind
	Param     float64 // prediction confidence (balancing) or accuracy (tie-break)
	// CombineMax switches the balancing P_f to the Section 4.1
	// max-combiner instead of the Section 5.2.1 product (ablation).
	CombineMax bool

	// Backfill defaults to EASY (the paper's scheduler backfills); set
	// BackfillStrict for strict FCFS, since BackfillNone is the zero
	// value and cannot be distinguished from "unset".
	Backfill       core.BackfillMode
	BackfillStrict bool
	Migration      bool
	MigrationCost  float64 // checkpoint-and-restart delay per move (paper: 0)
	Downtime       float64 // seconds a failed node stays down (paper: 0)

	// Checkpointing (the Section 8 extension). CheckpointInterval > 0
	// enables periodic checkpoints; CheckpointPredictive instead uses
	// the prediction-triggered policy driven by a tie-breaking
	// predictor of accuracy Param. Both zero disables checkpointing,
	// matching the paper's main runs.
	CheckpointInterval   float64
	CheckpointPredictive bool
	CheckpointOverhead   float64
	CheckpointRestart    float64

	// Finder selects the free-partition search algorithm by name
	// (partition.ByName): "naive", "pop", "shape" (default; "fast" is
	// another name for it) or "anneal" (the communication-aware
	// annealing placer). Every algorithm returns identical candidate
	// sets; all but "anneal" also make identical choices, so for them
	// this knob changes scheduling cost only, never scheduling
	// decisions. The anneal finder additionally steers placement among
	// policy-equal candidates, seeded by AnnealSeed.
	Finder string
	// AnnealSeed seeds the "anneal" finder's stochastic placement
	// search (partition.ByName); ignored by the other finders.
	// Part of the canonical config, since it changes decisions.
	AnnealSeed int64

	// Contention selects the network-contention preset by name
	// (contention.FromLevel): "" or "off" (the paper's model — no
	// contention), "low", "medium" or "high". When enabled, co-resident
	// jobs whose partitions share torus lines dilate each other's
	// runtime.
	Contention string

	// RecordTimeline samples machine state into Result.Timeline.
	RecordTimeline bool
	// CheckInvariants makes the simulator validate machine-state
	// conservation after every event (sim.Config.CheckInvariants).
	CheckInvariants bool
	// EventLog, when non-nil, receives the JSONL simulation event log.
	EventLog io.Writer
	// Telemetry, when non-nil, is threaded through the scheduler, the
	// partition finder, the simulator and the run builder, so one
	// registry collects the whole run's "sched.*", "finder.*", "sim.*"
	// and "build.*" instruments.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, receives build-stage spans (wall-clock,
	// gated by the tracer's options) and the simulator's causal
	// lifecycle records (sim.Config.Trace).
	Trace *trace.Tracer
	// Flight, when non-nil, is the run's kernel flight recorder
	// (sim.Config.Flight).
	Flight *trace.FlightRecorder

	Seed int64
}

// Normalize fills defaults in place.
func (c *RunConfig) Normalize() {
	if c.Workload == "" {
		c.Workload = "SDSC"
	}
	if c.JobCount == 0 {
		c.JobCount = 2000
	}
	if c.LoadScale == 0 {
		c.LoadScale = 1.0
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedBaseline
	}
	if c.BackfillStrict {
		c.Backfill = core.BackfillNone
	} else if c.Backfill == core.BackfillNone {
		c.Backfill = core.BackfillEASY
	}
}

// Canonical returns the config with defaults filled and the
// process-local fields (EventLog, Telemetry, Trace, Flight) cleared:
// the form that hashes identically for semantically identical
// requests. The service layer canonicalises every submitted config
// before hashing it, so {"Workload":"SDSC"} and
// {"Workload":"SDSC","JobCount":2000} land on the same cache entry.
func (c RunConfig) Canonical() RunConfig {
	c.EventLog = nil
	c.Telemetry = nil
	c.Trace = nil
	c.Flight = nil
	c.Normalize()
	return c
}

// Validate reports the first rule a normalized copy of the config
// breaks, naming the offending field. It is the one gate for a run
// config: Build applies it, and so do the service and the CLIs before
// they queue or start anything. Caps that only protect a shared
// server's resources (the service's MaxJobs) stay with that server.
func (c RunConfig) Validate() error {
	c.Normalize()
	if c.JobCount < 1 {
		return fmt.Errorf("JobCount must be >= 1, got %d", c.JobCount)
	}
	if c.Machine != "" {
		if _, err := torus.Parse(c.Machine); err != nil {
			return fmt.Errorf("Machine: %v", err)
		}
	}
	if _, err := workload.PresetByName(c.Workload, c.JobCount); err != nil {
		return fmt.Errorf("Workload: %v", err)
	}
	if _, err := partition.ByName(c.Finder, c.AnnealSeed); err != nil {
		return fmt.Errorf("Finder: %v", err)
	}
	if c.AnnealSeed < 0 {
		return fmt.Errorf("AnnealSeed must be >= 0, got %d", c.AnnealSeed)
	}
	switch c.Scheduler {
	case SchedBaseline, SchedBalancing, SchedTieBreak, SchedBalancingLearned, SchedTieBreakLearned:
	default:
		return fmt.Errorf("Scheduler: unknown kind %q", c.Scheduler)
	}
	if !(c.Param >= 0 && c.Param <= 1) {
		return fmt.Errorf("Param must be in [0, 1], got %g", c.Param)
	}
	if !(c.LoadScale > 0 && c.LoadScale <= 100) {
		return fmt.Errorf("LoadScale must be in (0, 100], got %g", c.LoadScale)
	}
	switch c.Backfill {
	case core.BackfillNone, core.BackfillAggressive, core.BackfillEASY:
	default:
		return fmt.Errorf("Backfill: unknown mode %d", int(c.Backfill))
	}
	if _, err := contention.FromLevel(c.Contention); err != nil {
		return fmt.Errorf("Contention: %v", err)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"EstimateFactor", c.EstimateFactor}, {"FailureScale", c.FailureScale},
		{"MigrationCost", c.MigrationCost}, {"Downtime", c.Downtime},
		{"CheckpointInterval", c.CheckpointInterval}, {"CheckpointOverhead", c.CheckpointOverhead},
		{"CheckpointRestart", c.CheckpointRestart},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("%s must be >= 0, got %g", f.name, f.v)
		}
	}
	if c.FailureNominal < 0 {
		return fmt.Errorf("FailureNominal must be >= 0, got %d", c.FailureNominal)
	}
	return nil
}

// maxFailureCount bounds the failures one run may inject: a 16 MB
// trace, about 100x the 10 051 that SDSC injects at the service's
// 20 000-job cap and nominal 4000. A larger count would make the
// generator allocate gigabytes, and one past the int range would wrap
// to a negative count.
const maxFailureCount = 1_000_000

// ScaledFailureCount maps a paper-axis nominal failure count onto the
// synthetic span (seconds). A positive override bypasses the density
// mapping: injected = round(nominal * override). A count that is not
// finite or exceeds maxFailureCount is refused with an error.
func ScaledFailureCount(nominal int, override float64, spanSeconds float64) (int, error) {
	if nominal <= 0 {
		return 0, nil
	}
	var count float64
	if override > 0 {
		count = math.Round(float64(nominal) * override)
	} else {
		days := spanSeconds / 86400
		count = math.Max(1, math.Round(float64(nominal)/100*DefaultFailuresPerDay*days))
	}
	if !(count <= maxFailureCount) { // also refuses NaN
		return 0, fmt.Errorf("build: nominal %d failures scale to %g injected, above the limit of %d",
			nominal, count, maxFailureCount)
	}
	return int(count), nil
}

// buildPolicy assembles the placement policy for the run. The failure
// index is materialised lazily (and cached) only for the kinds that
// consult it; the baseline never pays for it.
func buildPolicy(cfg RunConfig, ix func() (*failure.Index, error)) (core.Policy, error) {
	switch cfg.Scheduler {
	case SchedBaseline:
		return core.Baseline{}, nil
	case SchedBalancing:
		index, err := ix()
		if err != nil {
			return nil, err
		}
		return &core.Balancing{
			Prober: &predict.Balancing{Index: index, Confidence: cfg.Param},
			Max:    cfg.CombineMax,
		}, nil
	case SchedTieBreak:
		index, err := ix()
		if err != nil {
			return nil, err
		}
		return &core.TieBreak{Oracle: predict.NewTieBreak(index, cfg.Param, cfg.Seed+2)}, nil
	case SchedBalancingLearned:
		index, err := ix()
		if err != nil {
			return nil, err
		}
		return &core.Balancing{Prober: learnedWith(index, cfg.Param)}, nil
	case SchedTieBreakLearned:
		index, err := ix()
		if err != nil {
			return nil, err
		}
		return &core.TieBreak{Oracle: learnedWith(index, cfg.Param)}, nil
	}
	return nil, fmt.Errorf("build: unknown scheduler %q", cfg.Scheduler)
}

// maxCheckpointCount bounds the checkpoints (or predictive re-polls)
// one run may schedule, estimated as the jobs' total Actual work over
// the cadence. Each is a calendar event; at a millisecond interval five
// jobs already dispatch over four million of them.
const maxCheckpointCount = 1_000_000

// buildCheckpoint assembles the optional checkpointing extension,
// refusing a cadence that would schedule more than maxCheckpointCount
// checkpoints over the jobs' work.
func buildCheckpoint(cfg RunConfig, jobs []*job.Job, ix func() (*failure.Index, error)) (*checkpoint.Config, error) {
	horizon := cfg.CheckpointInterval
	cadence := horizon
	if cfg.CheckpointPredictive {
		if horizon <= 0 {
			horizon = 3600
		}
		cadence = horizon / 4 // the policy's re-poll interval
	} else if horizon <= 0 {
		return nil, nil
	}
	work := 0.0
	for _, j := range jobs {
		work += j.Actual
	}
	if n := work / cadence; !(n <= maxCheckpointCount) { // also refuses NaN
		return nil, fmt.Errorf("build: checkpoint cadence %gs over %.0fs of job work schedules %.4g checkpoints, above the limit of %d",
			cadence, work, n, maxCheckpointCount)
	}
	if !cfg.CheckpointPredictive {
		return &checkpoint.Config{
			Policy:         &checkpoint.Periodic{Interval: cfg.CheckpointInterval},
			Overhead:       cfg.CheckpointOverhead,
			RestartPenalty: cfg.CheckpointRestart,
		}, nil
	}
	index, err := ix()
	if err != nil {
		return nil, err
	}
	return &checkpoint.Config{
		Policy: &checkpoint.PredictionTriggered{
			Oracle:  predict.NewTieBreak(index, cfg.Param, cfg.Seed+3),
			Horizon: horizon,
			Lead:    60,
			MinGap:  cadence,
		},
		Overhead:       cfg.CheckpointOverhead,
		RestartPenalty: cfg.CheckpointRestart,
		PollInterval:   cadence,
	}, nil
}

// learnedWith builds the learned predictor, using Param (when set) as
// its decision threshold.
func learnedWith(ix *failure.Index, threshold float64) *predict.Learned {
	l := predict.NewLearned(ix)
	if threshold > 0 {
		l.Threshold = threshold
	}
	return l
}

// geometry resolves the machine spec.
func geometry(cfg RunConfig) (torus.Geometry, error) {
	if cfg.Machine == "" {
		return torus.BlueGeneL(), nil
	}
	return torus.Parse(cfg.Machine)
}
