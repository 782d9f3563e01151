package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"bgsched/internal/build"
	"bgsched/internal/sim"
	"bgsched/internal/snapshot"
)

// ErrSnapshotNotReached reports that a run ended — by completing or by
// being cancelled — before dispatching the requested snapshot seq, so
// no snapshot was (or must be) written.
var ErrSnapshotNotReached = errors.New("snapshot point not reached")

// Branch is the set of knobs a what-if replay may turn: the scheduling
// policy, its parameters, the partition finder and the migration model.
// Nil/empty fields inherit the parent's value, so the zero Branch is
// the identity (useful for equivalence checks: a no-op branch must
// reproduce the parent's tail exactly). The machine, workload and
// failure trace are not here by design — a branch replays the same
// world under a different policy, never a different world.
type Branch struct {
	Scheduler     SchedulerKind `json:"scheduler,omitempty"`
	Param         *float64      `json:"param,omitempty"`
	CombineMax    *bool         `json:"combine_max,omitempty"`
	Finder        string        `json:"finder,omitempty"`
	Migration     *bool         `json:"migration,omitempty"`
	MigrationCost *float64      `json:"migration_cost,omitempty"`
}

// IsZero reports whether the branch changes nothing.
func (b Branch) IsZero() bool {
	return b.Scheduler == "" && b.Param == nil && b.CombineMax == nil &&
		b.Finder == "" && b.Migration == nil && b.MigrationCost == nil
}

// Apply overlays the branch onto the parent configuration and returns
// the branch's run configuration.
func (b Branch) Apply(parent RunConfig) RunConfig {
	cfg := parent
	if b.Scheduler != "" {
		cfg.Scheduler = b.Scheduler
	}
	if b.Param != nil {
		cfg.Param = *b.Param
	}
	if b.CombineMax != nil {
		cfg.CombineMax = *b.CombineMax
	}
	if b.Finder != "" {
		cfg.Finder = b.Finder
	}
	if b.Migration != nil {
		cfg.Migration = *b.Migration
	}
	if b.MigrationCost != nil {
		cfg.MigrationCost = *b.MigrationCost
	}
	return cfg
}

// SnapshotAt builds the configured run, executes it up to the event
// boundary atSeq and captures a snapshot there, without continuing.
// The canonical parent config is embedded in the snapshot so a file
// written from it can be restored stand-alone. If the run completes or
// is cancelled before reaching atSeq, the error wraps both
// ErrSnapshotNotReached and (for cancellation) the context error.
func SnapshotAt(ctx context.Context, cfg RunConfig, atSeq int64) (*snapshot.State, error) {
	s, err := prefixRun(ctx, cfg, atSeq)
	if err != nil {
		return nil, err
	}
	return capture(s, cfg)
}

// RunWithSnapshot executes the configured run to completion, capturing
// a snapshot as it crosses the event boundary atSeq. The returned
// result is the full, uninterrupted run's — pausing at an event
// boundary is observationally free — so one call yields both the
// parent outcome and the branch point.
func RunWithSnapshot(ctx context.Context, cfg RunConfig, atSeq int64) (sim.Result, *snapshot.State, error) {
	s, err := prefixRun(ctx, cfg, atSeq)
	if err != nil {
		return sim.Result{}, nil, err
	}
	st, err := capture(s, cfg)
	if err != nil {
		return sim.Result{}, nil, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return sim.Result{}, nil, err
	}
	return res, st, nil
}

// prefixRun builds the run and advances it to the event boundary atSeq,
// translating "never got there" into ErrSnapshotNotReached.
func prefixRun(ctx context.Context, cfg RunConfig, atSeq int64) (*sim.Simulator, error) {
	if atSeq < 1 {
		return nil, fmt.Errorf("experiments: snapshot seq %d, want >= 1", atSeq)
	}
	sc, _, err := build.Default(cfg)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	done, err := s.RunToEvent(ctx, atSeq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w after %d of %d events: %w",
				ErrSnapshotNotReached, s.EventsDispatched(), atSeq, err)
		}
		return nil, err
	}
	if done {
		return nil, fmt.Errorf("%w: run completed after %d events (requested %d)",
			ErrSnapshotNotReached, s.EventsDispatched(), atSeq)
	}
	return s, nil
}

// capture snapshots a paused simulator and embeds the canonical parent
// config.
func capture(s *sim.Simulator, cfg RunConfig) (*snapshot.State, error) {
	st, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	cb, err := json.Marshal(cfg.Canonical())
	if err != nil {
		return nil, fmt.Errorf("experiments: embed parent config: %w", err)
	}
	st.Config = cb
	return st, nil
}

// ResumeFromSnapshot restores the captured state under cfg — typically
// a Branch.Apply of the parent's config — and runs it to completion.
// The config must describe the snapshot's world (machine, workload,
// failures); sim.NewFromSnapshot enforces that.
func ResumeFromSnapshot(ctx context.Context, cfg RunConfig, st *snapshot.State) (sim.Result, error) {
	sc, _, err := build.Default(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sim.NewFromSnapshot(sc, st)
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunContext(ctx)
}

// ParentConfig decodes the parent run configuration embedded in a
// snapshot (canonical form), for restores driven by the snapshot file
// alone.
func ParentConfig(st *snapshot.State) (RunConfig, error) {
	if len(st.Config) == 0 {
		return RunConfig{}, fmt.Errorf("experiments: snapshot carries no embedded config")
	}
	var cfg RunConfig
	if err := json.Unmarshal(st.Config, &cfg); err != nil {
		return RunConfig{}, fmt.Errorf("experiments: embedded config: %w", err)
	}
	return cfg, nil
}

// BranchPoint names one branch of a grid.
type BranchPoint struct {
	Name   string
	Branch Branch
}

// BranchGrid runs the parent to completion (snapshotting at atSeq on
// the way through) and then replays every branch from that shared
// snapshot, returning a table comparing branch outcomes against the
// parent: x point 0 is the parent, point i >= 1 is points[i-1]. The
// delta series are branch minus parent, so a zero-valued no-op branch
// row is itself an equivalence statement.
func BranchGrid(ctx context.Context, parent RunConfig, atSeq int64, points []BranchPoint) (*Table, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("experiments: branch grid needs at least one branch")
	}
	parentRes, st, err := RunWithSnapshot(ctx, parent, atSeq)
	if err != nil {
		return nil, err
	}
	results := make([]sim.Result, 0, len(points)+1)
	names := make([]string, 0, len(points)+1)
	results = append(results, parentRes)
	names = append(names, "parent")
	for _, pt := range points {
		res, err := ResumeFromSnapshot(ctx, pt.Branch.Apply(parent), st)
		if err != nil {
			return nil, fmt.Errorf("experiments: branch %q: %w", pt.Name, err)
		}
		results = append(results, res)
		names = append(names, pt.Name)
	}

	t := &Table{
		ID:     "branch-grid",
		Title:  fmt.Sprintf("Branch replay at event %d: %s", atSeq, joinNames(names[1:])),
		XLabel: "branch index (0 = parent: " + joinNames(names) + ")",
	}
	series := []Series{
		{Name: "avg_slowdown"}, {Name: "d_slowdown"},
		{Name: "avg_wait"}, {Name: "d_wait"},
		{Name: "utilization"}, {Name: "kills"}, {Name: "restarts"},
	}
	base := parentRes.Summary
	for i, res := range results {
		t.X = append(t.X, float64(i))
		s := res.Summary
		series[0].Y = append(series[0].Y, s.AvgSlowdown)
		series[1].Y = append(series[1].Y, s.AvgSlowdown-base.AvgSlowdown)
		series[2].Y = append(series[2].Y, s.AvgWait)
		series[3].Y = append(series[3].Y, s.AvgWait-base.AvgWait)
		series[4].Y = append(series[4].Y, s.Utilization)
		series[5].Y = append(series[5].Y, float64(res.JobKills))
		series[6].Y = append(series[6].Y, float64(s.TotalRestarts))
	}
	t.Series = series
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
