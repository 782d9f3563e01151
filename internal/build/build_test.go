package build

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bgsched/internal/job"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
)

// testCfg is a small sweep-point-sized config.
func testCfg() RunConfig {
	return RunConfig{
		Workload: "SDSC", JobCount: 80, FailureNominal: 1000,
		Scheduler: SchedBalancing, Param: 0.5, Seed: 11,
	}
}

// counters extracts one counter value from a registry snapshot-free.
func counter(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestBuildColdThenWarm: the first build of a config misses every
// keyed stage; an identical rebuild through the same cache hits every
// one and synthesizes nothing.
func TestBuildColdThenWarm(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}

	reg1 := telemetry.New()
	cfg := testCfg()
	cfg.Telemetry = reg1
	if _, _, err := b.Build(cfg); err != nil {
		t.Fatal(err)
	}
	if hits := counter(reg1, "build.cache.hits"); hits != 0 {
		t.Fatalf("cold build recorded %d hits", hits)
	}
	misses := counter(reg1, "build.cache.misses")
	if misses < 3 { // workload, jobs, trace (+ index for balancing)
		t.Fatalf("cold build recorded %d misses, want >= 3", misses)
	}

	reg2 := telemetry.New()
	cfg = testCfg()
	cfg.Telemetry = reg2
	if _, _, err := b.Build(cfg); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg2, "build.cache.misses"); got != 0 {
		t.Fatalf("warm build recorded %d misses", got)
	}
	if got := counter(reg2, "build.cache.hits"); got != misses {
		t.Fatalf("warm build hits = %d, want %d (one per keyed stage)", got, misses)
	}
	for _, stage := range []string{"workload", "jobs", "trace", "index"} {
		if got := counter(reg2, "build."+stage+".hits"); got != 1 {
			t.Errorf("warm build.%s.hits = %d, want 1", stage, got)
		}
	}
}

// TestBuildPolicyOnlyRebuild: two configs sharing (workload, seed,
// jobs, load, failures) but differing in policy parameters reuse every
// upstream artifact — the sweep's dominant rebuild pattern.
func TestBuildPolicyOnlyRebuild(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	cfg := testCfg()
	if _, _, err := b.Build(cfg); err != nil {
		t.Fatal(err)
	}

	for i, mutate := range []func(*RunConfig){
		func(c *RunConfig) { c.Param = 0.9 },
		func(c *RunConfig) { c.Scheduler = SchedTieBreak },
		func(c *RunConfig) { c.Scheduler = SchedBaseline },
		func(c *RunConfig) { c.Backfill, c.BackfillStrict = 0, true },
	} {
		reg := telemetry.New()
		c := testCfg()
		mutate(&c)
		c.Telemetry = reg
		if _, _, err := b.Build(c); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got := counter(reg, "build.cache.misses"); got != 0 {
			t.Errorf("variant %d: policy-only change recomputed %d stages", i, got)
		}
	}
}

// TestBuildKeyedStagesDiverge: changing a field a stage depends on must
// produce different artifacts, never a false cache hit.
func TestBuildKeyedStagesDiverge(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	base := testCfg()
	_, artBase, err := b.Build(base)
	if err != nil {
		t.Fatal(err)
	}

	seedVar := testCfg()
	seedVar.Seed = 12
	_, artSeed, err := b.Build(seedVar)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(artBase.Log, artSeed.Log) {
		t.Fatal("different seeds served the same workload log")
	}
	if reflect.DeepEqual(artBase.Trace, artSeed.Trace) {
		t.Fatal("different seeds served the same failure trace")
	}

	loadVar := testCfg()
	loadVar.LoadScale = 1.2
	_, artLoad, err := b.Build(loadVar)
	if err != nil {
		t.Fatal(err)
	}
	if artLoad.Log != artBase.Log {
		t.Fatal("load change should reuse the workload log artifact")
	}
	if artLoad.Jobs[0].Actual == artBase.Jobs[0].Actual {
		t.Fatal("load change served unscaled jobs")
	}

	failVar := testCfg()
	failVar.FailureNominal = 2000
	_, artFail, err := b.Build(failVar)
	if err != nil {
		t.Fatal(err)
	}
	if len(artFail.Trace) == len(artBase.Trace) {
		t.Fatal("different nominal failure counts served the same trace")
	}
}

// TestBuildJobsCloned: the jobs artifact is handed out as fresh clones
// — two builds must not alias job pointers, or concurrent runs would
// share mutable scheduling identity.
func TestBuildJobsCloned(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	_, a1, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, a2, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Jobs) == 0 || len(a1.Jobs) != len(a2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a1.Jobs), len(a2.Jobs))
	}
	for i := range a1.Jobs {
		if a1.Jobs[i] == a2.Jobs[i] {
			t.Fatalf("job %d aliased between builds", i)
		}
		if *a1.Jobs[i] != *a2.Jobs[i] {
			t.Fatalf("job %d clone differs from master: %+v vs %+v", i, a1.Jobs[i], a2.Jobs[i])
		}
	}
}

// TestBuildWarmRunByteIdentical: a simulation built warm must replay
// exactly as one built cold — the artifact cache may change cost, never
// results.
func TestBuildWarmRunByteIdentical(t *testing.T) {
	runOnce := func(b *Builder) sim.Result {
		sc, _, err := b.Build(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := runOnce(&Builder{Cache: NewCache(0)})
	shared := &Builder{Cache: NewCache(0)}
	runOnce(shared) // warm the cache
	warm := runOnce(shared)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-cache run diverged from cold-cache run")
	}
}

// TestCacheLRUEviction: the cache honours its bound and evicts the
// least recently used entry first.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func(k string) func() (any, error) {
		return func() (any, error) { return k, nil }
	}
	c.GetOrCompute("a", mk("a"))
	c.GetOrCompute("b", mk("b"))
	c.GetOrCompute("a", mk("a")) // refresh a
	c.GetOrCompute("c", mk("c")) // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.GetOrCompute("a", mk("a2")); !hit {
		t.Fatal("recently used entry a was evicted")
	}
	if _, hit, _ := c.GetOrCompute("b", mk("b2")); hit {
		t.Fatal("evicted entry b still served")
	}
}

// TestCacheErrorNotCached: a failing compute is reported and nothing is
// inserted; the next caller retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(0)
	boom := fmt.Errorf("boom")
	if _, _, err := c.GetOrCompute("k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	v, hit, err := c.GetOrCompute("k", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry = (%v, %v, %v)", v, hit, err)
	}
}

// TestCachePanicFinishesFlight: a compute that panics still finishes
// its flight. The panic reaches the computing caller, a caller waiting
// on the flight gets an error, nothing is inserted, and a later call
// for the key computes afresh instead of blocking forever.
func TestCachePanicFinishesFlight(t *testing.T) {
	c := NewCache(0)
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrCompute("k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	type outcome struct {
		v   any
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		v, _, err := c.GetOrCompute("k", func() (any, error) { return "computed by the waiter", nil })
		waited <- outcome{v, err}
	}()
	waitForFlightWaiter(t)
	close(release)

	const patience = 5 * time.Second
	select {
	case p := <-panicked:
		if p != "boom" {
			t.Fatalf("computing caller recovered %v, want the compute's panic", p)
		}
	case <-time.After(patience):
		t.Fatal("the panic never reached the computing caller")
	}
	select {
	case o := <-waited:
		if !errors.Is(o.err, errComputePanicked) {
			t.Fatalf("waiter got (%v, %v), want errComputePanicked", o.v, o.err)
		}
	case <-time.After(patience):
		t.Fatal("waiter still blocked on the panicked flight")
	}
	if c.Len() != 0 {
		t.Fatal("a panicked computation was cached")
	}
	again := make(chan outcome, 1)
	go func() {
		v, hit, err := c.GetOrCompute("k", func() (any, error) { return 42, nil })
		if hit {
			err = fmt.Errorf("hit after a panicked flight")
		}
		again <- outcome{v, err}
	}()
	select {
	case o := <-again:
		if o.err != nil || o.v != 42 {
			t.Fatalf("later call = (%v, %v), want a fresh 42", o.v, o.err)
		}
	case <-time.After(patience):
		t.Fatal("later call for the key blocked on the panicked flight")
	}
}

// waitForFlightWaiter blocks until some goroutine is parked inside
// GetOrCompute itself — a caller waiting on another's flight, not a
// compute — failing the test after a few seconds.
func waitForFlightWaiter(t *testing.T) {
	t.Helper()
	const parked = "[chan receive]:\nbgsched/internal/build.(*Cache).GetOrCompute("
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), parked) {
			return
		}
	}
	t.Fatal("no caller ever waited on the flight")
}

// TestCacheCoalescing: concurrent misses on one key run the compute
// once; every other caller blocks and shares the result.
func TestCacheCoalescing(t *testing.T) {
	c := NewCache(0)
	var mu sync.Mutex
	computes := 0
	release := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (any, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release // hold the flight open so every caller piles up
				return "artifact", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	for i, v := range results {
		if v != "artifact" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

// TestBuildConcurrentSharedCache: parallel builds over a mixed grid
// through one cache must race-cleanly produce the same results as
// sequential cold builds (run under -race in CI).
func TestBuildConcurrentSharedCache(t *testing.T) {
	grid := make([]RunConfig, 0, 12)
	for _, param := range []float64{0.1, 0.5, 0.9} {
		for _, nominal := range []int{0, 1000} {
			cfg := testCfg()
			cfg.Param = param
			cfg.FailureNominal = nominal
			grid = append(grid, cfg)
			cfg.Scheduler = SchedTieBreak
			grid = append(grid, cfg)
		}
	}
	want := make([]sim.Result, len(grid))
	for i, cfg := range grid {
		res := mustRun(t, &Builder{Cache: NewCache(0)}, cfg)
		want[i] = res
	}

	shared := &Builder{Cache: NewCache(0)}
	got := make([]sim.Result, len(grid))
	var wg sync.WaitGroup
	for i, cfg := range grid {
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			got[i] = mustRun(t, shared, cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i := range grid {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("grid point %d diverged under the shared concurrent cache", i)
		}
	}
}

func mustRun(t *testing.T, b *Builder, cfg RunConfig) sim.Result {
	t.Helper()
	sc, _, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJobClonesCrossRunIsolation: back-to-back full simulations of the
// same point — the sweep engine's pattern via experiments.RunContext —
// stay byte-identical, no two builds share a job struct, and the cached
// master slice never absorbs a run's mutations. ReleaseJobs drops the
// clone, is idempotent and is safe on nil.
func TestJobClonesCrossRunIsolation(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	var prev []*job.Job
	var results []sim.Result
	for run := 0; run < 3; run++ {
		sc, art, err := b.Build(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		for i := range prev {
			if art.Jobs[i] == prev[i] {
				t.Fatalf("run %d: job %d shared with the previous build", run, i)
			}
		}
		prev = art.Jobs
		s, err := sim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		art.ReleaseJobs()
		if art.Jobs != nil {
			t.Fatal("ReleaseJobs left the artifact holding the clone")
		}
		art.ReleaseJobs() // idempotent
	}
	(*Artifacts)(nil).ReleaseJobs()
	if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[1], results[2]) {
		t.Fatal("job clones changed simulation results across runs")
	}
}

// TestJobClonesConcurrent hammers build/release from a worker fleet —
// the sweep engine's parallel point execution — scribbling on every
// clone, and checks that the masters stay pristine. Run under -race by
// the build cache race guard, which also catches two live builds
// sharing a job struct.
func TestJobClonesConcurrent(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	if _, _, err := b.Build(testCfg()); err != nil { // warm the masters
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, art, err := b.Build(testCfg())
				if err != nil {
					t.Error(err)
					return
				}
				for _, j := range art.Jobs {
					j.Actual = -1 // scribble like a running simulation
				}
				art.ReleaseJobs()
			}
		}()
	}
	wg.Wait()
	// After the dust settles, a fresh build must still see pristine
	// masters despite all the scribbling.
	_, art, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range art.Jobs {
		if j.Actual == -1 {
			t.Fatalf("job %d leaked a previous run's mutation", i)
		}
	}
}

// TestCacheByteBound: the artifact cache weighs what it retains and
// evicts least recently used artifacts until the weight fits its byte
// budget; the latest build's artifacts stay, the oldest are rebuilt.
func TestCacheByteBound(t *testing.T) {
	const budget = 2 << 20 // one build of the configs below fits, two do not
	b := &Builder{Cache: newCache(0, budget)}
	build := func(seed int64) (*Artifacts, *telemetry.Registry) {
		t.Helper()
		reg := telemetry.New()
		_, art, err := b.Build(RunConfig{
			Workload: "SDSC", JobCount: 50, FailureNominal: 100, FailureScale: 500,
			Scheduler: SchedBalancing, Param: 0.1, Seed: seed, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return art, reg
	}
	for seed := int64(1); seed <= 3; seed++ {
		art, _ := build(seed)
		if len(art.Trace) != 50000 || art.Index == nil {
			t.Fatalf("seed %d: %d failures, index %v; want 50000 and an index", seed, len(art.Trace), art.Index)
		}
		mine := artifactBytes(art.Trace) + artifactBytes(art.Index) + artifactBytes(art.Log) + artifactBytes(art.Jobs)
		if got := b.Cache.items.Size(); got > budget || got < mine {
			t.Fatalf("seed %d: cache holds %d B, want between this build's %d B and the %d B budget", seed, got, mine, budget)
		}
	}
	if _, reg := build(3); counter(reg, "build.cache.misses") != 0 {
		t.Fatal("the latest build's artifacts were evicted")
	}
	if _, reg := build(1); counter(reg, "build.trace.misses") != 1 || counter(reg, "build.index.misses") != 1 {
		t.Fatal("the oldest build's failure artifacts outlived the byte budget")
	}

	// The weights come from lengths.
	art, _ := build(1)
	for _, tc := range []struct {
		v    any
		want int64
	}{
		{art.Trace, 16 * 50000},
		{art.Index, art.Index.Bytes()},
		{art.Log, 32 * int64(len(art.Log.Jobs))},
		{art.Jobs, 56 * int64(len(art.Jobs))},
		{"not an artifact", 0},
	} {
		if got := artifactBytes(tc.v); got != tc.want {
			t.Errorf("artifactBytes(%T) = %d, want %d", tc.v, got, tc.want)
		}
	}
}
