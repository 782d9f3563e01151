package partition

import (
	"math/rand"
	"testing"

	"bgsched/internal/torus"
)

func annealGrid(t *testing.T, fill float64, seed int64) *torus.Grid {
	t.Helper()
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	rng := rand.New(rand.NewSource(seed))
	owner := int64(1)
	for id := 0; id < g.N(); id++ {
		if rng.Float64() < fill {
			p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(p, owner); err != nil {
				t.Fatal(err)
			}
			owner++
		}
	}
	return gr
}

// The annealed placement is a pure function of (seed, occupancy hash,
// candidate set): repeated calls, a different finder instance with the
// same seed, and a grid rebuilt from Owners (a new grid, same
// occupancy) must all pick the same candidate.
func TestAnnealPlaceDeterministic(t *testing.T) {
	gr := annealGrid(t, 0.4, 3)
	f := NewAnnealFinder(7)
	for _, size := range []int{4, 8, 16} {
		cands := f.FreeOfSize(gr, size)
		if len(cands) < 2 {
			continue
		}
		want := f.Place(gr, cands)
		for i := 0; i < 3; i++ {
			if got := f.Place(gr, cands); got != want {
				t.Fatalf("size %d: repeat call chose %d, want %d", size, got, want)
			}
		}
		if got := NewAnnealFinder(7).Place(gr, cands); got != want {
			t.Fatalf("size %d: fresh same-seed finder chose %d, want %d", size, got, want)
		}
		rebuilt, err := torus.NewGridFromOwners(gr.Geometry(), gr.Owners())
		if err != nil {
			t.Fatal(err)
		}
		if got := f.Place(rebuilt, f.FreeOfSize(rebuilt, size)); got != want {
			t.Fatalf("size %d: rebuilt grid chose %d, want %d", size, got, want)
		}
	}
}

// The walk starts at candidate 0 and tracks the best score visited, so
// the annealed choice can never score worse than the default
// first-candidate placement.
func TestAnnealPlaceNeverWorseThanDefault(t *testing.T) {
	for gseed := int64(1); gseed <= 5; gseed++ {
		gr := annealGrid(t, 0.45, gseed)
		f := NewAnnealFinder(gseed)
		for _, size := range []int{2, 4, 8} {
			cands := f.FreeOfSize(gr, size)
			if len(cands) == 0 {
				continue
			}
			idx := f.Place(gr, cands)
			if idx < 0 || idx >= len(cands) {
				t.Fatalf("Place returned out-of-range index %d of %d", idx, len(cands))
			}
			if got, def := PlacementScore(gr, cands[idx]), PlacementScore(gr, cands[0]); got > def {
				t.Fatalf("grid seed %d size %d: annealed score %v worse than default %v", gseed, size, got, def)
			}
		}
	}
}

// The enumeration half must stay byte-identical to the reference
// finder: Place only reorders preference, never the legal set.
func TestAnnealFreeOfSizeMatchesShape(t *testing.T) {
	gr := annealGrid(t, 0.4, 9)
	f := NewAnnealFinder(1)
	ref := ShapeFinder{}
	for _, size := range []int{1, 4, 8, 32} {
		got, want := f.FreeOfSize(gr, size), ref.FreeOfSize(gr, size)
		if len(got) != len(want) {
			t.Fatalf("size %d: %d candidates, reference %d", size, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d index %d: %v vs %v", size, i, got[i], want[i])
			}
		}
	}
}
