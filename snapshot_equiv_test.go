package bgsched

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bgsched/internal/build"
	"bgsched/internal/experiments"
	"bgsched/internal/sim"
	"bgsched/internal/snapshot"
	"bgsched/internal/trace"
)

// equivConfigs are the workload configurations of the snapshot
// equivalence suite: one per synthetic workload family, spread across
// schedulers and the optional mechanisms so the snapshot covers every
// piece of mutable state — downtime holds in the occupancy map (SDSC),
// migration reschedules (NASA), and the prediction-triggered
// checkpoint policy's private trigger state (LLNL), the one subsystem
// that round-trips through the Stateful hooks.
func equivConfigs() []experiments.RunConfig {
	return []experiments.RunConfig{
		{Workload: "SDSC", JobCount: 48, FailureNominal: 30, FailureScale: 1, Seed: 11,
			Scheduler: experiments.SchedBaseline, Downtime: 1800},
		{Workload: "NASA", JobCount: 48, FailureNominal: 25, FailureScale: 1, Seed: 23,
			Scheduler: experiments.SchedTieBreak, Param: 0.8,
			Migration: true, MigrationCost: 30},
		{Workload: "LLNL", JobCount: 48, FailureNominal: 40, FailureScale: 1, Seed: 37,
			Scheduler: experiments.SchedBalancing, Param: 0.9,
			CheckpointPredictive: true, CheckpointInterval: 7200,
			CheckpointOverhead: 60, CheckpointRestart: 120},
	}
}

// runBytes is one run's complete observable output: the final result,
// the JSONL event log and the NDJSON causal trace.
type runBytes struct {
	res   sim.Result
	elog  []byte
	trace []byte
	// preTrace is the byte length of the prefix half's causal trace in
	// a split run (0 for an uninterrupted run), so tests can inspect
	// which records were emitted on each side of the boundary.
	preTrace int
}

// fullRun executes cfg uninterrupted, capturing every output stream.
func fullRun(t *testing.T, cfg experiments.RunConfig) runBytes {
	t.Helper()
	var elog, tbuf bytes.Buffer
	cfg.EventLog = &elog
	cfg.Trace = trace.New(&tbuf, trace.Options{})
	res, err := experiments.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	return runBytes{res: res, elog: elog.Bytes(), trace: tbuf.Bytes()}
}

// splitRun executes cfg as prefix-to-seq, snapshot, encode/decode
// round-trip, restore into a fresh build, continue — concatenating the
// two halves' output streams. The tentpole contract is that its return
// value is indistinguishable from fullRun's.
func splitRun(t *testing.T, cfg experiments.RunConfig, seq int64) runBytes {
	t.Helper()
	ctx := context.Background()

	pre := cfg
	var elogA, traceA bytes.Buffer
	pre.EventLog = &elogA
	pre.Trace = trace.New(&traceA, trace.Options{})
	sc, _, err := build.Default(pre)
	if err != nil {
		t.Fatalf("seq %d: build prefix: %v", seq, err)
	}
	s, err := sim.New(sc)
	if err != nil {
		t.Fatalf("seq %d: %v", seq, err)
	}
	done, err := s.RunToEvent(ctx, seq)
	if err != nil {
		t.Fatalf("seq %d: prefix: %v", seq, err)
	}
	if done {
		t.Fatalf("seq %d: prefix completed early (%d events)", seq, s.EventsDispatched())
	}
	if got := s.EventsDispatched(); got != seq {
		t.Fatalf("paused at event %d, want %d", got, seq)
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatalf("seq %d: snapshot: %v", seq, err)
	}

	// Round-trip through the canonical encoding: the restored state is
	// the decoded one, so the continuation also proves Encode/Decode
	// lossless; the content hash must survive the trip.
	var buf bytes.Buffer
	encHash, err := st.Encode(&buf)
	if err != nil {
		t.Fatalf("seq %d: encode: %v", seq, err)
	}
	st2, decHash, err := snapshot.Decode(&buf)
	if err != nil {
		t.Fatalf("seq %d: decode: %v", seq, err)
	}
	if encHash != decHash {
		t.Fatalf("seq %d: hash changed across encode/decode: %s != %s", seq, encHash, decHash)
	}

	cont := cfg
	var elogB, traceB bytes.Buffer
	cont.EventLog = &elogB
	cont.Trace = trace.New(&traceB, trace.Options{})
	sc2, _, err := build.Default(cont)
	if err != nil {
		t.Fatalf("seq %d: build continuation: %v", seq, err)
	}
	s2, err := sim.NewFromSnapshot(sc2, st2)
	if err != nil {
		t.Fatalf("seq %d: restore: %v", seq, err)
	}
	res, err := s2.RunContext(ctx)
	if err != nil {
		t.Fatalf("seq %d: continuation: %v", seq, err)
	}
	return runBytes{
		res:      res,
		elog:     append(elogA.Bytes(), elogB.Bytes()...),
		trace:    append(traceA.Bytes(), traceB.Bytes()...),
		preTrace: traceA.Len(),
	}
}

// equivSeqs picks n deterministic pseudo-random snapshot points inside
// the run's valid range [1, events-1].
func equivSeqs(seed, events int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, 0, n)
	for len(out) < n {
		out = append(out, 1+rng.Int63n(events-1))
	}
	return out
}

// TestSnapshotEquivalence is the tentpole property suite: for every
// workload configuration, every partition finder and >= 20 randomized
// snapshot seqs, snapshot -> encode -> decode -> restore -> continue is
// byte-identical to the uninterrupted run — event log, causal trace and
// final result.
func TestSnapshotEquivalence(t *testing.T) {
	// anneal is the one finder whose placement reads grid state beyond
	// its candidate set (its search is seeded from the occupancy).
	finders := []string{"naive", "pop", "shape", "anneal"}
	if testing.Short() {
		finders = []string{"shape", "anneal"} // naive/pop are slow; CI runs all four
	}
	for ci, base := range equivConfigs() {
		for _, finder := range finders {
			cfg := base
			cfg.Finder = finder
			t.Run(fmt.Sprintf("%s-%s", cfg.Workload, finder), func(t *testing.T) {
				full := fullRun(t, cfg)
				events := full.res.EventsDispatched
				if events < 3 {
					t.Fatalf("degenerate run: only %d events", events)
				}
				for _, seq := range equivSeqs(int64(1000*ci)+cfg.Seed, events, 20) {
					split := splitRun(t, cfg, seq)
					if !bytes.Equal(full.elog, split.elog) {
						t.Fatalf("seq %d: event log diverged (full %d bytes, split %d bytes, first diff at %d)",
							seq, len(full.elog), len(split.elog), firstDiff(full.elog, split.elog))
					}
					if !bytes.Equal(full.trace, split.trace) {
						t.Fatalf("seq %d: causal trace diverged (full %d bytes, split %d bytes, first diff at %d)",
							seq, len(full.trace), len(split.trace), firstDiff(full.trace, split.trace))
					}
					if !reflect.DeepEqual(full.res, split.res) {
						t.Fatalf("seq %d: result diverged:\nfull  %+v\nsplit %+v", seq, full.res.Summary, split.res.Summary)
					}
				}
			})
		}
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestSnapshotNoopBranchEquivalence pins the branch layer's identity
// case: RunWithSnapshot's parent result equals a plain run, and a
// zero-valued Branch resumed from the snapshot reproduces the parent's
// outcome exactly.
func TestSnapshotNoopBranchEquivalence(t *testing.T) {
	cfg := equivConfigs()[0]
	ctx := context.Background()
	plain, err := experiments.RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const at = 100
	parent, st, err := experiments.RunWithSnapshot(ctx, cfg, at)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, parent) {
		t.Fatalf("RunWithSnapshot parent result differs from plain run:\n%+v\n%+v", plain.Summary, parent.Summary)
	}
	var noop experiments.Branch
	if !noop.IsZero() {
		t.Fatal("zero Branch is not IsZero")
	}
	res, err := experiments.ResumeFromSnapshot(ctx, noop.Apply(cfg), st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatalf("no-op branch diverged from parent:\n%+v\n%+v", plain.Summary, res.Summary)
	}
}

// TestSnapshotWorldMismatchRefused pins the world guard: restoring a
// snapshot under a config with a different job log must fail, however
// compatible the machine looks.
func TestSnapshotWorldMismatchRefused(t *testing.T) {
	cfg := equivConfigs()[0]
	st, err := experiments.SnapshotAt(context.Background(), cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.JobCount = 49 // different job log => different world
	if _, err := experiments.ResumeFromSnapshot(context.Background(), other, st); err == nil {
		t.Fatal("restore under a different world succeeded; want world-mismatch error")
	}
}

// TestSnapshotEquivalenceContention extends the equivalence property to
// the contention subsystem: with the dilation model and the annealing
// placer enabled, a split at EVERY event boundary must reproduce the
// uninterrupted run byte-for-byte — event log, causal trace and final
// result (including the contention ledger). It also checks the causal
// chain survives the cut: at least one continuation-side dilation
// record must point its cause at a record emitted before the boundary.
func TestSnapshotEquivalenceContention(t *testing.T) {
	cfg := experiments.RunConfig{
		Workload: "SDSC", JobCount: 28, FailureNominal: 15, FailureScale: 1, Seed: 11,
		Scheduler: experiments.SchedBalancing, Param: 0.5,
		Finder: "anneal", AnnealSeed: 3, Contention: "medium",
	}
	full := fullRun(t, cfg)
	if full.res.ContentionCharges == 0 || full.res.DilationSeconds <= 0 {
		t.Fatalf("contention model never fired (charges=%d, dilation=%g); the scenario is degenerate",
			full.res.ContentionCharges, full.res.DilationSeconds)
	}
	events := full.res.EventsDispatched
	if events < 3 {
		t.Fatalf("degenerate run: only %d events", events)
	}
	stride := int64(1) // every boundary
	if testing.Short() {
		stride = 7
	}
	causeCrossed := false
	for seq := int64(1); seq < events; seq += stride {
		split := splitRun(t, cfg, seq)
		if !bytes.Equal(full.elog, split.elog) {
			t.Fatalf("seq %d: event log diverged (first diff at %d)", seq, firstDiff(full.elog, split.elog))
		}
		if !bytes.Equal(full.trace, split.trace) {
			t.Fatalf("seq %d: causal trace diverged (first diff at %d)", seq, firstDiff(full.trace, split.trace))
		}
		if !reflect.DeepEqual(full.res, split.res) {
			t.Fatalf("seq %d: result diverged:\nfull  %+v charges=%d dilation=%g\nsplit %+v charges=%d dilation=%g",
				seq, full.res.Summary, full.res.ContentionCharges, full.res.DilationSeconds,
				split.res.Summary, split.res.ContentionCharges, split.res.DilationSeconds)
		}
		if causeCrossed {
			continue
		}
		// A dilation and the start that causes it always land in the same
		// event turn, so the pair never straddles the cut. What must
		// survive the cut is the per-job causal chain: after a prefix-side
		// dilation, the job's next lifecycle record chains to the dilate
		// record — if that next record is continuation-side, its cause
		// points back across the boundary.
		preRecs, err := trace.ReadLog(bytes.NewReader(split.trace[:split.preTrace]))
		if err != nil {
			t.Fatalf("seq %d: parse prefix trace: %v", seq, err)
		}
		preDilates := make(map[uint64]bool)
		for _, r := range preRecs {
			if r.Name == "dilate" {
				preDilates[r.Seq] = true
			}
		}
		contRecs, err := trace.ReadLog(bytes.NewReader(split.trace[split.preTrace:]))
		if err != nil {
			t.Fatalf("seq %d: parse continuation trace: %v", seq, err)
		}
		for _, r := range contRecs {
			if r.Cause > 0 && preDilates[r.Cause] {
				causeCrossed = true
				break
			}
		}
	}
	if !causeCrossed {
		t.Fatal("no continuation-side record chained its cause to a prefix-side dilation record across any boundary")
	}
}
