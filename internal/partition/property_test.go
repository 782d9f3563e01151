package partition_test

import (
	"fmt"
	"math/rand"
	"testing"

	"bgsched/internal/partition"
	"bgsched/internal/partition/oracle"
	"bgsched/internal/torus"
)

// This file is the property-based layer of the finder test suite:
// instead of fixed examples, it draws hundreds of random occupancy
// patterns, checks the universal properties every finder must uphold,
// and — the part example tests cannot do — shrinks any failure to a
// minimal reproduction before reporting it. Shrinking frees one busy
// cell at a time as long as the property still fails, so the dump in
// the failure message shows the fewest busy nodes that trigger the
// bug, not the random noise the generator happened to draw.

// buildGrid materialises an occupancy pattern (busy mask) as a grid.
func buildGrid(t testing.TB, g torus.Geometry, busy []bool) *torus.Grid {
	t.Helper()
	gr := torus.NewGrid(g)
	owner := int64(1)
	for id, b := range busy {
		if !b {
			continue
		}
		p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
		if err := gr.Allocate(p, owner); err != nil {
			t.Fatalf("building occupancy: %v", err)
		}
		owner++
	}
	return gr
}

// randomBusy draws a busy mask with the given fill probability.
func randomBusy(g torus.Geometry, fill float64, rng *rand.Rand) []bool {
	busy := make([]bool, g.N())
	for i := range busy {
		busy[i] = rng.Float64() < fill
	}
	return busy
}

// property is a predicate over one (grid, size) input; nil means it
// holds, an error describes the violation.
type property func(g torus.Geometry, busy []bool, size int) error

// shrink greedily minimises a failing busy mask: repeatedly free any
// single busy cell whose removal keeps the property failing, until no
// cell can be removed. The result is a local minimum — every busy cell
// in it is necessary for the failure.
func shrink(g torus.Geometry, busy []bool, size int, prop property) ([]bool, error) {
	busy = append([]bool(nil), busy...)
	err := prop(g, busy, size)
	if err == nil {
		return busy, nil
	}
	for changed := true; changed; {
		changed = false
		for id := range busy {
			if !busy[id] {
				continue
			}
			busy[id] = false
			if e := prop(g, busy, size); e != nil {
				err = e // keep the minimal failure's own message
				changed = true
				continue
			}
			busy[id] = true
		}
	}
	return busy, err
}

// reportShrunk fails the test with the minimal reproduction.
func reportShrunk(t *testing.T, g torus.Geometry, busy []bool, size int, prop property) {
	t.Helper()
	minBusy, err := shrink(g, busy, size, prop)
	n := 0
	for _, b := range minBusy {
		if b {
			n++
		}
	}
	t.Fatalf("property violated; minimal reproduction (%d busy cells, size=%d):\n%s%v",
		n, size, oracle.DumpGrid(buildGrid(t, g, minBusy)), err)
}

// checkFinderProperties verifies every universal finder property on
// one input: each candidate is a valid rectangular partition of
// exactly the requested size, fully free, canonically based, and the
// list is strictly sorted (hence duplicate-free).
func checkFinderProperties(f partition.Finder) property {
	return func(g torus.Geometry, busy []bool, size int) error {
		gr := torus.NewGrid(g)
		owner := int64(1)
		for id, b := range busy {
			if !b {
				continue
			}
			p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(p, owner); err != nil {
				return nil // unreachable for unit allocations
			}
			owner++
		}
		ps := f.FreeOfSize(gr, size)
		for j, p := range ps {
			switch {
			case !g.ValidPartition(p):
				return fmt.Errorf("%s: candidate %d (%v) is not a valid partition", f.Name(), j, p)
			case p.Size() != size:
				return fmt.Errorf("%s: candidate %d (%v) has size %d, want %d", f.Name(), j, p, p.Size(), size)
			case !gr.PartitionFree(p):
				return fmt.Errorf("%s: candidate %d (%v) is not fully free", f.Name(), j, p)
			case p.Shape.X == g.Dims.X && p.Base.X != 0,
				p.Shape.Y == g.Dims.Y && p.Base.Y != 0,
				p.Shape.Z == g.Dims.Z && p.Base.Z != 0:
				return fmt.Errorf("%s: candidate %d (%v) is not canonicalised", f.Name(), j, p)
			}
		}
		for j := 1; j < len(ps); j++ {
			if !partitionLessTest(ps[j-1], ps[j]) {
				return fmt.Errorf("%s: candidates %d..%d out of order or duplicated (%v then %v)",
					f.Name(), j-1, j, ps[j-1], ps[j])
			}
		}
		return nil
	}
}

// checkAgreesWithNaive is the differential property: identical result
// sets to the exhaustive reference.
func checkAgreesWithNaive(f partition.Finder) property {
	return func(g torus.Geometry, busy []bool, size int) error {
		gr := torus.NewGrid(g)
		owner := int64(1)
		for id, b := range busy {
			if !b {
				continue
			}
			p := torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(p, owner); err != nil {
				return nil
			}
			owner++
		}
		want := (partition.NaiveFinder{}).FreeOfSize(gr, size)
		got := f.FreeOfSize(gr, size)
		if len(got) != len(want) {
			return fmt.Errorf("%s found %d candidates, naive found %d", f.Name(), len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("%s candidate %d is %v, naive has %v", f.Name(), j, got[j], want[j])
			}
		}
		return nil
	}
}

// partitionLessTest mirrors the finders' shape-major output order.
func partitionLessTest(a, b torus.Partition) bool {
	if a.Shape != b.Shape {
		if a.Shape.X != b.Shape.X {
			return a.Shape.X < b.Shape.X
		}
		if a.Shape.Y != b.Shape.Y {
			return a.Shape.Y < b.Shape.Y
		}
		return a.Shape.Z < b.Shape.Z
	}
	if a.Base.X != b.Base.X {
		return a.Base.X < b.Base.X
	}
	if a.Base.Y != b.Base.Y {
		return a.Base.Y < b.Base.Y
	}
	return a.Base.Z < b.Base.Z
}

// propertyFinders is the finder set the property checks run against.
func propertyFinders() []partition.Finder {
	return []partition.Finder{
		partition.NaiveFinder{},
		partition.POPFinder{},
		partition.ShapeFinder{},
	}
}

// TestFinderProperties draws random occupancy patterns over torus and
// mesh geometries and checks the universal properties of every finder,
// shrinking any failure to a minimal busy set before reporting.
func TestFinderProperties(t *testing.T) {
	geoms := []torus.Geometry{
		torus.BlueGeneL(),
		torus.NewGeometry(4, 4, 8, false),
		torus.NewGeometry(3, 5, 7, true),
	}
	rng := rand.New(rand.NewSource(20260806))
	for _, g := range geoms {
		sizes := g.FeasibleSizes()
		for trial := 0; trial < 60; trial++ {
			busy := randomBusy(g, rng.Float64(), rng)
			size := sizes[rng.Intn(len(sizes))]
			for _, f := range propertyFinders() {
				prop := checkFinderProperties(f)
				if err := prop(g, busy, size); err != nil {
					t.Logf("initial failure: %v", err)
					reportShrunk(t, g, busy, size, prop)
				}
			}
		}
	}
}

// TestFinderAgreementProperty is the differential property under the
// same generator: every finder matches the naive reference exactly,
// with shrinking on failure.
func TestFinderAgreementProperty(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	sizes := g.FeasibleSizes()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		busy := randomBusy(g, rng.Float64(), rng)
		size := sizes[rng.Intn(len(sizes))]
		for _, f := range propertyFinders()[1:] {
			prop := checkAgreesWithNaive(f)
			if err := prop(g, busy, size); err != nil {
				t.Logf("initial failure: %v", err)
				reportShrunk(t, g, busy, size, prop)
			}
		}
	}
}

// TestShrinkerActuallyShrinks proves the shrinker does its job: given
// a property that fails whenever one specific cell is busy, shrinking
// a heavily-filled failing state must reduce it to exactly that cell.
func TestShrinkerActuallyShrinks(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	target := g.Index(torus.Coord{X: 1, Y: 2, Z: 3})
	prop := func(_ torus.Geometry, busy []bool, _ int) error {
		if busy[target] {
			return fmt.Errorf("cell %d is busy", target)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(7))
	busy := randomBusy(g, 0.8, rng)
	busy[target] = true
	minBusy, err := shrink(g, busy, 1, prop)
	if err == nil {
		t.Fatal("shrink lost the failure")
	}
	for id, b := range minBusy {
		if b != (id == target) {
			t.Fatalf("shrunk state is not minimal: cell %d busy=%v", id, b)
		}
	}
}
