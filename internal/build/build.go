package build

import (
	"fmt"

	"bgsched/internal/contention"
	"bgsched/internal/core"
	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
	"bgsched/internal/workload"
)

// hitField renders a stage lookup result as a span attribute.
func hitField(hit bool) trace.Field {
	if hit {
		return trace.F("cache", "hit")
	}
	return trace.F("cache", "miss")
}

// buildMetrics holds the builder's cache instruments, resolved per
// Build call against the run's registry. With a nil registry every
// handle is nil and recording is a no-op.
type buildMetrics struct {
	hits   *telemetry.Counter // build.cache.hits: stage artifacts reused
	misses *telemetry.Counter // build.cache.misses: stage artifacts computed
	reg    *telemetry.Registry
}

// record books one stage lookup under both the aggregate and the
// per-stage counters (build.<stage>.hits / build.<stage>.misses).
func (m buildMetrics) record(stage string, hit bool) {
	suffix := ".misses"
	agg := m.misses
	if hit {
		suffix = ".hits"
		agg = m.hits
	}
	agg.Inc()
	m.reg.Counter("build." + stage + suffix).Inc()
}

// Builder stages a RunConfig into a ready-to-run sim.Config. The zero
// value builds through the process-wide Shared cache with no
// telemetry; a nil *Builder behaves the same.
type Builder struct {
	// Cache memoises stage artifacts; nil uses Shared.
	Cache *Cache
	// Telemetry receives the "build.*" hit/miss counters; nil disables
	// collection. Independent of RunConfig.Telemetry only in tests —
	// Build wires cfg.Telemetry here when unset.
	Telemetry *telemetry.Registry
}

// Artifacts exposes the intermediate stage products of one build, for
// tests and diagnostics. Log, Trace and Index are shared cache entries
// and must not be mutated; Jobs is a run-private clone owned by the
// caller.
type Artifacts struct {
	Geometry torus.Geometry
	Log      *workload.Log
	Jobs     []*job.Job
	Span     float64 // simulated horizon: Log.Span() * QueueDrainSlack
	Failures int     // injected failure count after nominal scaling
	Trace    failure.Trace
	Index    *failure.Index // nil unless a stage consulted it
}

// ReleaseJobs drops the artifacts' reference to the run's job-slice
// clone, so a caller that keeps the Artifacts past the run does not
// keep the jobs alive. sim.Result and its Outcomes hold no job
// pointers, so a caller may release once the run's result is out.
// Safe on nil and idempotent.
func (a *Artifacts) ReleaseJobs() {
	if a == nil {
		return
	}
	a.Jobs = nil
}

func (b *Builder) cache() *Cache {
	if b == nil || b.Cache == nil {
		return Shared
	}
	return b.Cache
}

// Build runs the staged pipeline for cfg and returns the assembled
// sim.Config plus the stage artifacts it was built from. The returned
// config is ready for sim.New: the scheduler, finder and policy layers
// are always constructed fresh (they hold mutable per-run state), while
// the synthesis-heavy upstream stages are served from the artifact
// cache whenever a previous build shared their sub-config.
func (b *Builder) Build(cfg RunConfig) (sim.Config, *Artifacts, error) {
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, nil, fmt.Errorf("build: %w", err)
	}
	cfg.Normalize()
	reg := cfg.Telemetry
	if b != nil && b.Telemetry != nil {
		reg = b.Telemetry
	}
	// A nil registry yields nil instruments, which record as no-ops.
	met := buildMetrics{hits: reg.Counter("build.cache.hits"), misses: reg.Counter("build.cache.misses"), reg: reg}
	cache := b.cache()
	buildSpan := cfg.Trace.Begin("build", "build")
	defer buildSpan.End()

	// Stage 1: geometry. A pure value — parsed, never cached.
	g, err := geometry(cfg)
	if err != nil {
		return sim.Config{}, nil, err
	}

	// Stage 2: workload log, keyed by exactly the fields synthesis
	// reads. Note geometry is absent: the log is machine-relative.
	estFactor := 1.0
	if cfg.EstimateFactor > 1 {
		estFactor = cfg.EstimateFactor
	}
	logKey := stageKey("workload", struct {
		Workload string
		JobCount int
		Estimate float64
		Seed     int64
	}{cfg.Workload, cfg.JobCount, estFactor, cfg.Seed})
	logSpan := cfg.Trace.Begin("build", "workload")
	logV, hit, err := cache.GetOrCompute(logKey, func() (any, error) {
		preset, err := workload.PresetByName(cfg.Workload, cfg.JobCount)
		if err != nil {
			return nil, err
		}
		if estFactor > 1 {
			preset.EstimateFactor = estFactor
		}
		return workload.Synthesize(preset, cfg.Seed)
	})
	logSpan.End(hitField(hit && err == nil))
	if err != nil {
		return sim.Config{}, nil, err
	}
	met.record("workload", hit)
	log := logV.(*workload.Log)

	// Stage 3: jobs, keyed by the log's key plus the mapping knobs. The
	// cache holds a master slice; every build gets fresh clones because
	// the simulator's bookkeeping aliases the job pointers.
	exact := cfg.EstimateFactor <= 1
	jobsKey := stageKey("jobs", struct {
		Log       string
		Geometry  torus.Geometry
		LoadScale float64
		Exact     bool
	}{logKey, g, cfg.LoadScale, exact})
	jobsSpan := cfg.Trace.Begin("build", "jobs")
	jobsV, hit, err := cache.GetOrCompute(jobsKey, func() (any, error) {
		return log.ToJobs(g, workload.ToJobsConfig{LoadScale: cfg.LoadScale, ExactEstimates: exact})
	})
	jobsSpan.End(hitField(hit && err == nil))
	if err != nil {
		return sim.Config{}, nil, err
	}
	met.record("jobs", hit)
	jobs := cloneJobs(jobsV.([]*job.Job))

	// Stage 4: failure trace, keyed by the derived generator inputs
	// (machine size, injected count, horizon, seed) so different
	// nominal counts that scale to the same injection share an entry.
	span := log.Span() * QueueDrainSlack
	count, err := ScaledFailureCount(cfg.FailureNominal, cfg.FailureScale, span)
	if err != nil {
		return sim.Config{}, nil, err
	}
	var ftrace failure.Trace
	if count > 0 {
		traceKey := stageKey("trace", struct {
			Nodes int
			Count int
			Span  float64
			Seed  int64
		}{g.N(), count, span, cfg.Seed + 1})
		traceSpan := cfg.Trace.Begin("build", "failure-trace")
		traceV, hit, err := cache.GetOrCompute(traceKey, func() (any, error) {
			return failure.Generate(failure.DefaultGeneratorConfig(g.N(), count, span), cfg.Seed+1)
		})
		traceSpan.End(hitField(hit && err == nil))
		if err != nil {
			return sim.Config{}, nil, err
		}
		met.record("trace", hit)
		ftrace = traceV.(failure.Trace)
	}

	// Stage 5: failure index, keyed by the trace's identity and
	// materialised lazily — only the predictor-driven policies and the
	// predictive checkpointer consult it.
	art := &Artifacts{Geometry: g, Log: log, Jobs: jobs, Span: span, Failures: count, Trace: ftrace}
	index := func() (*failure.Index, error) {
		if art.Index != nil {
			return art.Index, nil
		}
		ixKey := stageKey("index", struct {
			Nodes int
			Count int
			Span  float64
			Seed  int64
		}{g.N(), count, span, cfg.Seed + 1})
		ixSpan := cfg.Trace.Begin("build", "failure-index")
		ixV, hit, err := cache.GetOrCompute(ixKey, func() (any, error) {
			return failure.NewIndex(g.N(), ftrace), nil
		})
		ixSpan.End(hitField(hit && err == nil))
		if err != nil {
			return nil, err
		}
		met.record("index", hit)
		art.Index = ixV.(*failure.Index)
		return art.Index, nil
	}

	// Stage 6: policy, finder and scheduler — mutable per-run state,
	// always fresh.
	policy, err := buildPolicy(cfg, index)
	if err != nil {
		return sim.Config{}, nil, err
	}
	finder, err := partition.ByName(cfg.Finder, cfg.AnnealSeed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	sched, err := core.NewScheduler(core.Config{
		Policy:    policy,
		Finder:    partition.Instrumented(finder, cfg.Telemetry),
		Backfill:  cfg.Backfill,
		Migration: cfg.Migration,
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return sim.Config{}, nil, err
	}
	ckpt, err := buildCheckpoint(cfg, jobs, index)
	if err != nil {
		return sim.Config{}, nil, err
	}
	cont, err := contention.FromLevel(cfg.Contention)
	if err != nil {
		return sim.Config{}, nil, err
	}

	// Stage 7: final assembly.
	return sim.Config{
		Geometry:        g,
		Scheduler:       sched,
		Jobs:            jobs,
		Failures:        ftrace,
		Downtime:        cfg.Downtime,
		MigrationCost:   cfg.MigrationCost,
		Checkpoint:      ckpt,
		Contention:      cont,
		RecordTimeline:  cfg.RecordTimeline,
		CheckInvariants: cfg.CheckInvariants,
		EventLog:        cfg.EventLog,
		Telemetry:       cfg.Telemetry,
		Trace:           cfg.Trace,
		Flight:          cfg.Flight,
	}, art, nil
}

// stageKey derives the cache key of one stage from the canonical hash
// of exactly the sub-config that stage depends on.
func stageKey(stage string, sub any) string {
	return stage + ":" + telemetry.ConfigHash(sub)
}

// cloneJobs deep-copies a cached master job slice for one run.
func cloneJobs(master []*job.Job) []*job.Job {
	out := make([]*job.Job, len(master))
	for i, j := range master {
		cp := *j
		out[i] = &cp
	}
	return out
}

// Default builds cfg through the Shared cache, recording build
// telemetry into cfg.Telemetry. It is the single entry point the
// experiments layer, the sweep engine and the service dispatcher use.
func Default(cfg RunConfig) (sim.Config, *Artifacts, error) {
	var b Builder
	return b.Build(cfg)
}
