package partition

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bgsched/internal/torus"
)

// finders lists every algorithm; the agreement tests below replay each
// grid against all of them.
var finders = []Finder{NaiveFinder{}, POPFinder{}, ShapeFinder{}, NewAnnealFinder(1)}

func randomGrid(t *testing.T, g torus.Geometry, fillProb float64, seed int64) *torus.Grid {
	t.Helper()
	gr := torus.NewGrid(g)
	rng := rand.New(rand.NewSource(seed))
	owner := int64(1)
	for id := 0; id < g.N(); id++ {
		if rng.Float64() < fillProb {
			c := g.CoordOf(id)
			p := torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(p, owner); err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			owner++
		}
	}
	return gr
}

func TestFindersAgreeOnEmptyGrid(t *testing.T) {
	for _, g := range []torus.Geometry{torus.BlueGeneL(), torus.NewGeometry(4, 4, 8, false)} {
		gr := torus.NewGrid(g)
		for _, size := range []int{1, 2, 3, 8, 12, 32, 64, 128} {
			want := finders[0].FreeOfSize(gr, size)
			for _, f := range finders[1:] {
				got := f.FreeOfSize(gr, size)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("wrap=%v size=%d: %s returned %d parts, %s returned %d",
						g.Wrap, size, finders[0].Name(), len(want), f.Name(), len(got))
				}
			}
		}
	}
}

// TestFindersAgreeAsymmetric covers a machine with three distinct
// dimensions, where axis-confusion bugs show up.
func TestFindersAgreeAsymmetric(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		g := torus.NewGeometry(3, 5, 7, wrap)
		for seed := int64(0); seed < 10; seed++ {
			gr := randomGrid(t, g, float64(seed)/10, 900+seed)
			for _, size := range []int{1, 3, 5, 7, 15, 21, 35, 105} {
				want := finders[0].FreeOfSize(gr, size)
				for _, f := range finders[1:] {
					got := f.FreeOfSize(gr, size)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("3x5x7 wrap=%v seed=%d size=%d: %s != %s (%d vs %d)",
							wrap, seed, size, f.Name(), finders[0].Name(), len(got), len(want))
					}
				}
			}
			_, fast := MaxFree(gr)
			_, naive := MaxFreeNaive(gr)
			if fast != naive {
				t.Fatalf("3x5x7 wrap=%v seed=%d: MaxFree %d != naive %d", wrap, seed, fast, naive)
			}
		}
	}
}

func TestFindersAgreeOnRandomGrids(t *testing.T) {
	for _, wrap := range []bool{true, false} {
		g := torus.NewGeometry(4, 4, 8, wrap)
		for seed := int64(0); seed < 30; seed++ {
			fill := float64(seed%10) / 10.0
			gr := randomGrid(t, g, fill, seed)
			for _, size := range []int{1, 2, 4, 6, 8, 16, 24, 32, 64, 128} {
				want := finders[0].FreeOfSize(gr, size)
				for _, f := range finders[1:] {
					got := f.FreeOfSize(gr, size)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("wrap=%v seed=%d fill=%.1f size=%d: %s != %s (%d vs %d parts)",
							wrap, seed, fill, size, f.Name(), finders[0].Name(), len(got), len(want))
					}
				}
			}
		}
	}
}

func TestFreeOfSizeResultsAreActuallyFree(t *testing.T) {
	g := torus.BlueGeneL()
	for seed := int64(0); seed < 10; seed++ {
		gr := randomGrid(t, g, 0.4, 100+seed)
		for _, f := range finders {
			for _, size := range []int{4, 8, 16} {
				for _, p := range f.FreeOfSize(gr, size) {
					if p.Size() != size {
						t.Fatalf("%s returned partition %v of size %d, want %d", f.Name(), p, p.Size(), size)
					}
					if !g.ValidPartition(p) {
						t.Fatalf("%s returned invalid partition %v", f.Name(), p)
					}
					if !gr.PartitionFree(p) {
						t.Fatalf("%s returned non-free partition %v", f.Name(), p)
					}
				}
			}
		}
	}
}

func TestFreeOfSizeCanonicalBases(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	for _, f := range finders {
		seen := make(map[torus.Partition]bool)
		for _, p := range f.FreeOfSize(gr, 128) {
			if seen[p] {
				t.Fatalf("%s returned duplicate partition %v", f.Name(), p)
			}
			seen[p] = true
			if p.Base != (torus.Coord{}) {
				t.Fatalf("%s: full-machine partition must have canonical base 0, got %v", f.Name(), p)
			}
		}
		// Full x extent: base.X must be 0.
		for _, p := range f.FreeOfSize(gr, 16) {
			if p.Shape.X == 4 && p.Base.X != 0 {
				t.Fatalf("%s: shape spanning x must have Base.X=0, got %v", f.Name(), p)
			}
		}
	}
}

func TestFreeOfSizeInfeasible(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	for _, f := range finders {
		if got := f.FreeOfSize(gr, 11); len(got) != 0 {
			t.Errorf("%s: FreeOfSize(11) = %v, want empty (infeasible)", f.Name(), got)
		}
		if got := f.FreeOfSize(gr, 0); len(got) != 0 {
			t.Errorf("%s: FreeOfSize(0) = %v, want empty", f.Name(), got)
		}
		if got := f.FreeOfSize(gr, 200); len(got) != 0 {
			t.Errorf("%s: FreeOfSize(200) = %v, want empty", f.Name(), got)
		}
	}
}

func TestFreeOfSizeOnFullMachine(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	full := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 8}}
	if err := gr.Allocate(full, 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range finders {
		for _, size := range []int{1, 8, 128} {
			if got := f.FreeOfSize(gr, size); len(got) != 0 {
				t.Errorf("%s: full machine FreeOfSize(%d) = %d parts, want 0", f.Name(), size, len(got))
			}
		}
	}
}

// Every BufferedFinder answers FreeOfSizeInto with exactly what
// FreeOfSize returns, whatever the buffer held before, and the shape
// finder does so without allocating once its buffer has grown.
func TestFreeOfSizeIntoMatchesFreeOfSize(t *testing.T) {
	g := torus.BlueGeneL()
	junk := torus.Partition{Base: torus.Coord{X: 3}, Shape: torus.Shape{X: 9, Y: 9, Z: 9}}
	buf := make([]torus.Partition, 0, 4)
	for _, f := range finders {
		bf, ok := f.(BufferedFinder)
		if !ok {
			continue
		}
		for seed := int64(0); seed < 8; seed++ {
			gr := randomGrid(t, g, float64(seed)/8, 700+seed)
			for _, size := range []int{1, 2, 8, 16, 32, 64, 128} {
				want := f.FreeOfSize(gr, size)
				buf = bf.FreeOfSizeInto(gr, size, append(buf[:0], junk, junk))
				if len(buf) != len(want) || len(want) > 0 && !reflect.DeepEqual(buf, want) {
					t.Fatalf("%s seed=%d size=%d: FreeOfSizeInto gave %d parts, FreeOfSize %d",
						f.Name(), seed, size, len(buf), len(want))
				}
			}
		}
	}
	gr := randomGrid(t, g, 0.3, 7)
	buf = ShapeFinder{}.FreeOfSizeInto(gr, 8, buf)
	if n := testing.AllocsPerRun(20, func() { buf = ShapeFinder{}.FreeOfSizeInto(gr, 8, buf) }); n != 0 {
		t.Errorf("shape finder allocates %v times per buffered query", n)
	}
}

// TestShapeFinderConcurrentQueries hammers one shape finder from many
// goroutines over several grids; run under -race this is the
// concurrency guard for the shared enumeration scratch.
func TestShapeFinderConcurrentQueries(t *testing.T) {
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
	var f ShapeFinder
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

// edgeGeometries are the shapes at the edges of the MFP sweep's row
// layout (one Y-bit word per x and z): rows that fill their word
// (Y = 64), one-wide planes and a single plane (Z = 1).
var edgeGeometries = []torus.Geometry{
	torus.NewGeometry(2, 64, 2, true), torus.NewGeometry(2, 64, 2, false),
	torus.NewGeometry(1, 64, 3, false),
	torus.NewGeometry(1, 1, 9, true), torus.NewGeometry(6, 1, 4, false),
	torus.NewGeometry(64, 2, 1, true),
}

// canonical reports whether p is a valid partition of g whose base is
// 0 on every axis it spans in full, the one base finders emit.
func canonical(g torus.Geometry, p torus.Partition) bool {
	return g.ValidPartition(p) &&
		(p.Shape.X < g.Dims.X || p.Base.X == 0) &&
		(p.Shape.Y < g.Dims.Y || p.Base.Y == 0) &&
		(p.Shape.Z < g.Dims.Z || p.Base.Z == 0)
}

func TestMaxFreeMatchesNaive(t *testing.T) {
	for _, g := range append([]torus.Geometry{
		torus.NewGeometry(4, 4, 8, true), torus.NewGeometry(4, 4, 8, false),
	}, edgeGeometries...) {
		for seed := int64(0); seed < 40; seed++ {
			fill := float64(seed%10) / 10.0
			gr := randomGrid(t, g, fill, 500+seed)
			pFast, sFast := MaxFree(gr)
			_, sNaive := MaxFreeNaive(gr)
			if sFast != sNaive {
				t.Fatalf("%s seed=%d: MaxFree size = %d, naive = %d", g.Spec(), seed, sFast, sNaive)
			}
			if sFast > 0 {
				if !canonical(g, pFast) || !gr.PartitionFree(pFast) {
					t.Fatalf("%s seed=%d: MaxFree returned non-canonical or non-free partition %v", g.Spec(), seed, pFast)
				}
				if pFast.Size() != sFast {
					t.Fatalf("%s seed=%d: MaxFree partition %v has size %d, reported %d", g.Spec(), seed, pFast, pFast.Size(), sFast)
				}
			}
		}
	}
}

// TestMaxFreeProbeMatchesNaive checks the plate identity behind
// MFPCache.MaxFreeProbe on asymmetric tori and meshes, including a
// one-wide axis every placement spans, and on the edge geometries of
// the row layout: on random grids, the probe of every free partition
// of a few sizes (every N/8-th on machines of N >= 128 nodes, whose
// brute-force MFP is slow) equals the brute-force MFP of the grid with
// that partition allocated, and its partition is canonical and free
// there. One cache serves every grid, so its occupancy key is
// exercised too.
func TestMaxFreeProbeMatchesNaive(t *testing.T) {
	c := NewMFPCache()
	probes := 0
	for _, g := range append([]torus.Geometry{
		torus.NewGeometry(3, 5, 7, true), torus.NewGeometry(3, 5, 7, false),
		torus.NewGeometry(1, 4, 6, true), torus.NewGeometry(5, 2, 3, false),
	}, edgeGeometries...) {
		stride := 1
		if g.N() >= 128 {
			stride = g.N() / 8
		}
		for seed := int64(0); seed < 4; seed++ {
			gr := randomGrid(t, g, 0.1+0.2*float64(seed), 700+seed)
			for _, size := range []int{1, 2, 4, 6} {
				for i, p := range (ShapeFinder{}).FreeOfSize(gr, size) {
					if i%stride != 0 {
						continue
					}
					part, got := c.MaxFreeProbe(gr, p)
					if err := gr.Allocate(p, -1); err != nil {
						t.Fatal(err)
					}
					_, want := MaxFreeNaive(gr)
					free := got == 0 || part.Size() == got && canonical(g, part) && gr.PartitionFree(part)
					if err := gr.Release(p, -1); err != nil {
						t.Fatal(err)
					}
					if got != want || !free {
						t.Fatalf("%s seed %d: probe of %v = %v size %d, naive %d",
							g.Spec(), seed, p, part, got, want)
					}
					probes++
				}
			}
		}
	}
	if hits, _ := c.Stats(); probes < 1000 || hits == 0 {
		t.Fatalf("%d probes, %d plate hits: the draws are too thin", probes, hits)
	}
	t.Logf("%d probes", probes)
}

func TestMaxFreeEmptyAndFull(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	p, s := MaxFree(gr)
	if s != 128 || p.Size() != 128 {
		t.Fatalf("empty machine MaxFree = %v size %d, want full 128", p, s)
	}
	full := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 8}}
	if err := gr.Allocate(full, 1); err != nil {
		t.Fatal(err)
	}
	if _, s := MaxFree(gr); s != 0 {
		t.Fatalf("full machine MaxFree size = %d, want 0", s)
	}
	if s := MaxFreeSize(torus.NewGrid(g)); s != 128 {
		t.Fatalf("MaxFreeSize(empty) = %d, want 128", s)
	}
}

func TestMaxFreeWrapWindow(t *testing.T) {
	// Occupy the middle z plane; the largest free box must wrap around
	// the z edge on a torus but not on a mesh.
	for _, wrap := range []bool{true, false} {
		g := torus.NewGeometry(4, 4, 8, wrap)
		gr := torus.NewGrid(g)
		plane := torus.Partition{Base: torus.Coord{Z: 4}, Shape: torus.Shape{X: 4, Y: 4, Z: 1}}
		if err := gr.Allocate(plane, 1); err != nil {
			t.Fatal(err)
		}
		_, s := MaxFree(gr)
		want := 4 * 4 * 4 // mesh: z in [0,4)
		if wrap {
			want = 4 * 4 * 7 // torus: z window [5..7,0..3] wraps
		}
		if s != want {
			t.Fatalf("wrap=%v MaxFree size = %d, want %d", wrap, s, want)
		}
	}
}

func TestFinderNames(t *testing.T) {
	names := map[string]bool{}
	for _, f := range finders {
		if f.Name() == "" {
			t.Fatal("empty finder name")
		}
		if names[f.Name()] {
			t.Fatalf("duplicate finder name %q", f.Name())
		}
		names[f.Name()] = true
	}
	for _, name := range Names {
		f, err := ByName(name, 0)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if f.Name() != finderName(name) {
			t.Fatalf("ByName(%q).Name() = %q, want %q", name, f.Name(), finderName(name))
		}
	}
	if f, err := ByName("", 0); err != nil || f.Name() != "shape" {
		t.Fatalf("ByName(\"\") = %v, %v; want the shape default", f, err)
	}
	_, err := ByName("bogus", 0)
	if err == nil {
		t.Fatal("ByName must reject unknown algorithms")
	}
	// The rejection must tell the caller what IS available: every
	// registered name appears in the message.
	for _, name := range Names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ByName error %q does not list registered finder %q", err, name)
		}
	}
}

// finderName is the name the finder ByName(name) reports: "fast" is
// another name for the shape finder.
func finderName(name string) string {
	if name == "fast" {
		return "shape"
	}
	return name
}

// TestByNameRoundTrip covers every registered name: construction
// succeeds, the finder reports its algorithm's name back, and the seed
// is threaded into the annealer.
func TestByNameRoundTrip(t *testing.T) {
	for _, name := range Names {
		f, err := ByName(name, 42)
		if err != nil {
			t.Fatalf("ByName(%q, 42): %v", name, err)
		}
		if f.Name() != finderName(name) {
			t.Fatalf("ByName(%q).Name() = %q, want %q", name, f.Name(), finderName(name))
		}
		if af, ok := f.(*AnnealFinder); ok && af.Seed() != 42 {
			t.Fatalf("anneal finder seed = %d, want 42", af.Seed())
		}
	}
}

func benchGrid(b *testing.B, fill float64) *torus.Grid {
	b.Helper()
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	rng := rand.New(rand.NewSource(1))
	owner := int64(1)
	for id := 0; id < g.N(); id++ {
		if rng.Float64() < fill {
			c := g.CoordOf(id)
			if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, owner); err != nil {
				b.Fatal(err)
			}
			owner++
		}
	}
	return gr
}

func BenchmarkFreeOfSize(b *testing.B) {
	gr := benchGrid(b, 0.3)
	for _, f := range finders {
		b.Run(f.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.FreeOfSize(gr, 8)
			}
		})
	}
}

func BenchmarkMaxFree(b *testing.B) {
	gr := benchGrid(b, 0.3)
	b.Run("projection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxFree(gr)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxFreeNaive(gr)
		}
	})
	b.Run("probe", benchPlateSweepCold)
}

// benchPlateSweepCold times a cold plate sweep: an MFPCache probe of a
// state the cache has not seen. The probed partition is a free x-slab,
// whose y and z plates span the ring, so each probe sweeps its x-plate
// alone. One cache serves every probe and the timer never stops; each
// iteration toggles one of 20 free nodes off the slab along a Gray-code
// walk, so no state recurs within 2^20 probes and every probe sweeps,
// which the benchmark checks against the cache's miss count.
func benchPlateSweepCold(b *testing.B) {
	gr := benchGrid(b, 0.3)
	g := gr.Geometry()
	slab := torus.Partition{Shape: torus.Shape{X: 1, Y: g.Dims.Y, Z: g.Dims.Z}}
	for _, id := range g.Nodes(slab) {
		if o := gr.OwnerAt(id); o != torus.FreeOwner {
			if err := gr.Release(torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	var walk []torus.Partition
	for id := 0; id < g.N() && len(walk) < 20; id++ {
		if gr.NodeFree(id) && !g.ContainsNode(slab, id) {
			walk = append(walk, torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}})
		}
	}
	const owner = 1 << 40 // no benchGrid owner comes close
	c := NewMFPCache()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		p := walk[bits.TrailingZeros(uint(i))%len(walk)]
		var err error
		if gr.NodeFree(g.Index(p.Base)) {
			err = gr.Allocate(p, owner)
		} else {
			err = gr.Release(p, owner)
		}
		if err != nil {
			b.Fatal(err)
		}
		c.MaxFreeProbe(gr, slab)
	}
	b.StopTimer()
	if _, misses := c.Stats(); misses != uint64(b.N) {
		b.Fatalf("%d plate sweeps in %d probes, want one per probe", misses, b.N)
	}
}
