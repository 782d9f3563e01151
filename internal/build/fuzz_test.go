package build

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"bgsched/internal/sim"
)

// FuzzRunConfigGate drives the path a run request takes through the
// service: the strict JSON decode, Canonical, Validate, the staged
// build, sim.New, and a run under a 50 000-event budget. The property:
// no input panics. Every stage either refuses the config with an error
// or hands it on, and the budget and a timeout bound the run.
//
// Inputs are capped at 100 jobs on at most 256 nodes, because the
// scheduler's cost grows steeply with the machine. Each input builds
// through a private cache, so large failure traces do not pile up in
// the process-wide one across inputs.
func FuzzRunConfigGate(f *testing.F) {
	for _, seed := range []string{
		`{"JobCount":5,"FailureNominal":100,"FailureScale":1e12}`,
		`{"JobCount":5,"FailureNominal":100,"FailureScale":1e17}`,
		`{"JobCount":5,"CheckpointInterval":0.001}`,
		`{"JobCount":5,"CheckpointPredictive":true,"CheckpointInterval":0.01,"FailureNominal":100}`,
		`{"JobCount":50,"Contention":"extreme"}`,
		`{"JobCount":50,"Backfill":7}`,
		`{"JobCount":50,"Finder":"anneal","AnnealSeed":-1}`,
		`{"JobCount":50,"Param":1.5}`,
		`{"Machine":"3037000500x3037000500x1"}`,
		`{"Machine":"4x4x8/mesh","JobCount":40,"Scheduler":"balancing","Param":0.1,"FailureNominal":1000,"Contention":"medium","Finder":"anneal"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var cfg RunConfig
		if err := dec.Decode(&cfg); err != nil {
			return
		}
		cfg = cfg.Canonical()
		if err := cfg.Validate(); err != nil {
			return
		}
		if cfg.JobCount > 100 {
			return
		}
		if g, err := geometry(cfg); err != nil {
			t.Fatalf("Validate accepted machine %q that does not parse: %v", cfg.Machine, err)
		} else if g.N() > 256 {
			return
		}
		sc, _, err := (&Builder{Cache: NewCache(8)}).Build(cfg)
		if err != nil {
			return
		}
		s, err := sim.New(sc)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = s.RunToEvent(ctx, 50_000)
	})
}
