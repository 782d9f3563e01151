package build

import (
	"testing"

	"bgsched/internal/failure"
)

// benchCfg is a sweep-point-sized config whose build cost is dominated
// by workload synthesis and failure-trace generation — exactly the
// stages the artifact cache elides.
func benchCfg() RunConfig {
	return RunConfig{
		Workload: "SDSC", JobCount: 2000, FailureNominal: 1000,
		Scheduler: SchedBalancing, Param: 0.5, Seed: 7,
	}
}

// BenchmarkRunBuildColdVsWarm measures Build() alone (no simulation):
// Cold pays full synthesis on a fresh cache every iteration; Warm
// serves every keyed stage from a prewarmed cache, the steady state of
// a sweep whose points differ only in policy parameters. The bench
// guard tracks the warm path; the cold case is the baseline that makes
// the speedup legible.
func BenchmarkRunBuildColdVsWarm(b *testing.B) {
	cfg := benchCfg()

	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bl := &Builder{Cache: NewCache(0)}
			if _, _, err := bl.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Warm", func(b *testing.B) {
		bl := &Builder{Cache: NewCache(0)}
		if _, _, err := bl.Build(cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := bl.Build(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWarmBuildAllocatedBytes gates the warm build's heap volume.
// Bytes per op do not depend on the host's speed, so a fixed bound
// holds on any machine: a warm Build of benchCfg allocates about
// 112 KiB, nearly all of it the run's 2 000 job clones, so it must
// stay under 256 KiB.
func TestWarmBuildAllocatedBytes(t *testing.T) {
	cfg := benchCfg()
	bl := &Builder{Cache: NewCache(0)}
	_, _, err := bl.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			_, _, err = bl.Build(cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AllocedBytesPerOp(); res.N == 0 || got >= 256<<10 {
		t.Fatalf("warm Build allocates %d B/op over %d ops, want under %d", got, res.N, 256<<10)
	}
}

// TestIndexAllocatedBytes bounds what the failure index costs to build
// and hold. For the headline trace (SDSC, 2 000 jobs, 1 000 nominal
// failures, seed 1: 246 events on 128 nodes) the index of one slice
// per node allocated 8 016 B, mostly 128 slice headers and append
// slack; the flat layout with its time-ordered view must not exceed
// that.
func TestIndexAllocatedBytes(t *testing.T) {
	_, art, err := Default(RunConfig{
		Workload: "SDSC", JobCount: 2000, FailureNominal: 1000,
		Scheduler: SchedBalancing, Param: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Trace) != 246 {
		t.Fatalf("headline trace has %d events, want 246", len(art.Trace))
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			failure.NewIndex(art.Geometry.N(), art.Trace)
		}
	})
	if got := res.AllocedBytesPerOp(); res.N == 0 || got > 8016 {
		t.Fatalf("NewIndex allocates %d B/op over %d ops, want at most 8016", got, res.N)
	}
}
