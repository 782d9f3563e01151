package partition

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// TestFastFinderCacheHitAndInvalidation: repeated queries between
// state changes are answered from the cache; any allocate or release
// changes the key and forces re-enumeration with the new state.
func TestFastFinderCacheHitAndInvalidation(t *testing.T) {
	g := torus.BlueGeneL()
	gr := randomGrid(t, g, 0.4, 11)
	reg := telemetry.New()
	f := Instrumented(NewFastFinder(), reg).(*FastFinder)

	first := f.FreeOfSize(gr, 8)
	if got := f.Metrics.CacheMisses.Value(); got != 1 {
		t.Fatalf("misses after first query = %d, want 1", got)
	}
	second := f.FreeOfSize(gr, 8)
	if got := f.Metrics.CacheHits.Value(); got != 1 {
		t.Fatalf("hits after repeat query = %d, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cache hit returned different candidates")
	}

	p := first[0]
	if err := gr.Allocate(p, 999); err != nil {
		t.Fatal(err)
	}
	after := f.FreeOfSize(gr, 8)
	if got := f.Metrics.CacheMisses.Value(); got != 2 {
		t.Fatalf("misses after state change = %d, want 2", got)
	}
	for _, q := range after {
		if g.Overlaps(q, p) {
			t.Fatalf("stale candidate %v overlaps fresh allocation %v", q, p)
		}
	}
	want := (ShapeFinder{}).FreeOfSize(gr, 8)
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("post-invalidation result diverges from shape finder (%d vs %d)", len(after), len(want))
	}
}

// TestFastFinderRecurrenceHit: an allocate followed by the matching
// release restores the occupancy hash, so the next query re-hits the
// cache instead of re-enumerating — the pattern placement policies
// generate when they probe hypothetical placements.
func TestFastFinderRecurrenceHit(t *testing.T) {
	g := torus.BlueGeneL()
	gr := randomGrid(t, g, 0.15, 12)
	reg := telemetry.New()
	f := Instrumented(NewFastFinder(), reg).(*FastFinder)

	before := f.FreeOfSize(gr, 8)
	if len(before) == 0 {
		t.Fatal("no candidates to probe")
	}
	for _, p := range before {
		if err := gr.Allocate(p, 123); err != nil {
			t.Fatal(err)
		}
		if err := gr.Release(p, 123); err != nil {
			t.Fatal(err)
		}
	}
	misses := f.Metrics.CacheMisses.Value()
	again := f.FreeOfSize(gr, 8)
	if got := f.Metrics.CacheMisses.Value(); got != misses {
		t.Fatalf("probe round-trips caused a re-enumeration (misses %d -> %d)", misses, got)
	}
	if !reflect.DeepEqual(before, again) {
		t.Fatal("recurrence hit returned different candidates")
	}
}

// TestFastFinderManyGrids: one finder cycling through many grids
// answers each exactly as the shape finder does.
func TestFastFinderManyGrids(t *testing.T) {
	g := torus.BlueGeneL()
	f := NewFastFinder()
	grids := make([]*torus.Grid, 24)
	for i := range grids {
		grids[i] = randomGrid(t, g, 0.35, 500+int64(i))
	}
	for round := 0; round < 3; round++ {
		for i, gr := range grids {
			got := f.FreeOfSize(gr, 8)
			want := (ShapeFinder{}).FreeOfSize(gr, 8)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d grid %d: fast (%d) != shape (%d)", round, i, len(got), len(want))
			}
		}
	}
}

// TestFastFinderResultIsolation: callers may mutate the returned slice
// without corrupting the cache.
func TestFastFinderResultIsolation(t *testing.T) {
	g := torus.BlueGeneL()
	gr := randomGrid(t, g, 0.3, 77)
	f := NewFastFinder()
	first := f.FreeOfSize(gr, 8)
	if len(first) == 0 {
		t.Fatal("need candidates")
	}
	first[0] = torus.Partition{Base: torus.Coord{X: -9}, Shape: torus.Shape{X: -9}}
	second := f.FreeOfSize(gr, 8)
	if second[0].Base.X == -9 {
		t.Fatal("mutating a returned slice corrupted the cache")
	}
}

// TestFastFinderConcurrentQueries hammers one finder from many
// goroutines over several grids; run under -race this is the
// concurrency guard for the cache code.
func TestFastFinderConcurrentQueries(t *testing.T) {
	g := torus.BlueGeneL()
	grids := []*torus.Grid{
		randomGrid(t, g, 0.0, 1),
		randomGrid(t, g, 0.3, 2),
		randomGrid(t, g, 0.6, 3),
	}
	want := make([][]torus.Partition, len(grids))
	for i, gr := range grids {
		want[i] = ShapeFinder{}.FreeOfSize(gr, 8)
	}
	f := NewFastFinder()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 50; iter++ {
				i := rng.Intn(len(grids))
				if got := f.FreeOfSize(grids[i], 8); !reflect.DeepEqual(got, want[i]) {
					errs <- "concurrent query diverged"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestFastFinderNoShapesAndFullGrid covers the degenerate exits: sizes
// with no legal shape, and a machine with fewer free nodes than the
// request.
func TestFastFinderNoShapesAndFullGrid(t *testing.T) {
	g := torus.BlueGeneL()
	f := NewFastFinder()
	gr := torus.NewGrid(g)
	if got := f.FreeOfSize(gr, 11); got != nil { // 11 is not a feasible size on 4x4x8
		t.Fatalf("infeasible size returned %d parts", len(got))
	}
	if err := gr.Allocate(torus.Partition{Shape: g.Dims}, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.FreeOfSize(gr, 8); got != nil {
		t.Fatalf("full machine returned %d parts", len(got))
	}
}
