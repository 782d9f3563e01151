package torus

import (
	"math/rand"
	"slices"
	"testing"
)

func TestGridAllocateRelease(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	if gr.FreeCount() != 128 {
		t.Fatalf("new grid FreeCount = %d, want 128", gr.FreeCount())
	}
	p := Partition{Base: Coord{0, 0, 0}, Shape: Shape{2, 2, 2}}
	if err := gr.Allocate(p, 42); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if gr.FreeCount() != 120 {
		t.Fatalf("FreeCount after alloc = %d, want 120", gr.FreeCount())
	}
	for _, id := range g.Nodes(p) {
		if gr.OwnerAt(id) != 42 {
			t.Fatalf("node %d owner = %d, want 42", id, gr.OwnerAt(id))
		}
		if gr.NodeFree(id) {
			t.Fatalf("node %d should not be free", id)
		}
	}
	if gr.PartitionFree(p) {
		t.Fatal("allocated partition reported free")
	}
	if err := gr.Release(p, 42); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if gr.FreeCount() != 128 {
		t.Fatalf("FreeCount after release = %d, want 128", gr.FreeCount())
	}
	if !gr.PartitionFree(p) {
		t.Fatal("released partition not free")
	}
}

func TestGridAllocateErrors(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	p := Partition{Base: Coord{0, 0, 0}, Shape: Shape{2, 2, 2}}
	if err := gr.Allocate(p, FreeOwner); err == nil {
		t.Error("Allocate with FreeOwner id must fail")
	}
	if err := gr.Allocate(Partition{Base: Coord{0, 0, 0}, Shape: Shape{9, 1, 1}}, 1); err == nil {
		t.Error("Allocate with oversized shape must fail")
	}
	if err := gr.Allocate(p, 1); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Overlapping allocation must fail and leave state unchanged.
	q := Partition{Base: Coord{1, 1, 1}, Shape: Shape{2, 2, 2}}
	if err := gr.Allocate(q, 2); err == nil {
		t.Error("overlapping Allocate must fail")
	}
	if gr.FreeCount() != 120 {
		t.Errorf("failed Allocate changed FreeCount to %d", gr.FreeCount())
	}
	for id := 0; id < g.N(); id++ {
		if gr.OwnerAt(id) == 2 {
			t.Fatal("failed Allocate left owner marks behind")
		}
	}
}

func TestGridReleaseErrors(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	p := Partition{Base: Coord{0, 0, 0}, Shape: Shape{2, 2, 2}}
	if err := gr.Allocate(p, 7); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := gr.Release(p, 8); err == nil {
		t.Error("Release by wrong owner must fail")
	}
	if gr.FreeCount() != 120 {
		t.Errorf("failed Release changed FreeCount to %d", gr.FreeCount())
	}
	if err := gr.Release(Partition{Base: Coord{0, 0, 0}, Shape: Shape{0, 1, 1}}, 7); err == nil {
		t.Error("Release of invalid partition must fail")
	}
}

func TestGridWrapAllocation(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	// Partition wrapping around all three dimensions.
	p := Partition{Base: Coord{3, 3, 7}, Shape: Shape{2, 2, 2}}
	if err := gr.Allocate(p, 5); err != nil {
		t.Fatalf("Allocate wrapped: %v", err)
	}
	expected := map[Coord]bool{}
	for _, x := range []int{3, 0} {
		for _, y := range []int{3, 0} {
			for _, z := range []int{7, 0} {
				expected[Coord{x, y, z}] = true
			}
		}
	}
	for id := 0; id < g.N(); id++ {
		want := expected[g.CoordOf(id)]
		got := gr.OwnerAt(id) == 5
		if got != want {
			t.Fatalf("node %v allocated=%v, want %v", g.CoordOf(id), got, want)
		}
	}
}

func TestGridClone(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	p := Partition{Base: Coord{0, 0, 0}, Shape: Shape{4, 4, 1}}
	if err := gr.Allocate(p, 3); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	cl := gr.Clone()
	if cl.FreeCount() != gr.FreeCount() {
		t.Fatal("clone FreeCount mismatch")
	}
	// Mutating the clone must not affect the original.
	if err := cl.Release(p, 3); err != nil {
		t.Fatalf("clone Release: %v", err)
	}
	if gr.PartitionFree(p) {
		t.Fatal("mutating clone affected original grid")
	}
}

func TestGridFreeMask(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	p := Partition{Base: Coord{1, 1, 1}, Shape: Shape{1, 1, 3}}
	if err := gr.Allocate(p, 9); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	mask := gr.FreeMask()
	for id := 0; id < g.N(); id++ {
		if mask[id] != gr.NodeFree(id) {
			t.Fatalf("FreeMask[%d] = %v, NodeFree = %v", id, mask[id], gr.NodeFree(id))
		}
	}
}

// TestGridDoubleFreeDoubleAllocate covers the cell-level misuse cases:
// allocating over a busy cell and freeing an already-free cell must
// both error and leave every occupancy summary untouched.
func TestGridDoubleFreeDoubleAllocate(t *testing.T) {
	g := BlueGeneL()
	cell := Partition{Base: Coord{1, 2, 3}, Shape: Shape{1, 1, 1}}
	block := Partition{Base: Coord{1, 2, 2}, Shape: Shape{1, 1, 4}}
	cases := []struct {
		name string
		prep func(gr *Grid) error // establishes the pre-state
		op   func(gr *Grid) error // the misuse that must fail
	}{
		{
			"double allocate same cell",
			func(gr *Grid) error { return gr.Allocate(cell, 1) },
			func(gr *Grid) error { return gr.Allocate(cell, 2) },
		},
		{
			"double allocate overlapping block",
			func(gr *Grid) error { return gr.Allocate(cell, 1) },
			func(gr *Grid) error { return gr.Allocate(block, 2) },
		},
		{
			"double free via repeated release",
			func(gr *Grid) error {
				if err := gr.Allocate(cell, 1); err != nil {
					return err
				}
				return gr.Release(cell, 1)
			},
			func(gr *Grid) error { return gr.Release(cell, 1) },
		},
		{
			"free-owner release of free cells",
			func(gr *Grid) error { return nil },
			func(gr *Grid) error { return gr.Release(cell, FreeOwner) },
		},
		{
			"free-owner release of busy cells",
			func(gr *Grid) error { return gr.Allocate(cell, 1) },
			func(gr *Grid) error { return gr.Release(cell, FreeOwner) },
		},
		{
			"free-owner allocate",
			func(gr *Grid) error { return nil },
			func(gr *Grid) error { return gr.Allocate(cell, FreeOwner) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gr := NewGrid(g)
			if err := tc.prep(gr); err != nil {
				t.Fatalf("prep: %v", err)
			}
			free, hash := gr.FreeCount(), gr.OccupancyHash()
			if err := tc.op(gr); err == nil {
				t.Fatal("misuse succeeded, want error")
			}
			if gr.FreeCount() != free {
				t.Errorf("failed op changed FreeCount %d -> %d", free, gr.FreeCount())
			}
			if gr.OccupancyHash() != hash {
				t.Errorf("failed op changed OccupancyHash")
			}
			assertSummaries(t, gr)
		})
	}
}

// assertSummaries recomputes every incremental occupancy summary from
// the owner array and compares it against the maintained values.
func assertSummaries(t *testing.T, gr *Grid) {
	t.Helper()
	g := gr.Geometry()
	var hash uint64
	occ := make([]uint64, (g.N()+63)/64)
	free := 0
	for id := 0; id < g.N(); id++ {
		if gr.NodeFree(id) {
			free++
			continue
		}
		occ[id/64] |= 1 << (id % 64)
		hash ^= nodeKey(id)
	}
	if gr.FreeCount() != free {
		t.Errorf("FreeCount = %d, recomputed %d", gr.FreeCount(), free)
	}
	if gr.OccupancyHash() != hash {
		t.Errorf("OccupancyHash = %#x, recomputed %#x", gr.OccupancyHash(), hash)
	}
	if !slices.Equal(gr.Occupancy(), occ) {
		t.Errorf("Occupancy = %#x, recomputed %#x", gr.Occupancy(), occ)
	}
}

// TestGridOccupancyHashRecurrence: the hash must depend only on the
// free/busy pattern, so allocate+release round-trips restore it, equal
// patterns hash equally across distinct grids, and owner identities do
// not contribute.
func TestGridOccupancyHashRecurrence(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	empty := gr.OccupancyHash()
	p := Partition{Base: Coord{3, 3, 6}, Shape: Shape{2, 2, 3}} // wraps all axes
	if err := gr.Allocate(p, 1); err != nil {
		t.Fatal(err)
	}
	busy := gr.OccupancyHash()
	if busy == empty {
		t.Fatal("allocation did not change the occupancy hash")
	}
	if err := gr.Release(p, 1); err != nil {
		t.Fatal(err)
	}
	if gr.OccupancyHash() != empty {
		t.Fatal("allocate+release did not restore the occupancy hash")
	}
	other := NewGrid(g)
	if err := other.Allocate(p, 999); err != nil { // different owner, same pattern
		t.Fatal(err)
	}
	if other.OccupancyHash() != busy {
		t.Fatal("equal occupancy patterns hash differently across grids/owners")
	}
	if cl := other.Clone(); cl.OccupancyHash() != busy {
		t.Fatal("clone must keep the hash")
	}
}

// TestGridOccupancyCopies: Clone, CopyFrom and NewGridFromOwners carry
// the exact occupancy bitset over (on a geometry whose node count is
// not a multiple of 64), and a clone's bitset is its own storage.
func TestGridOccupancyCopies(t *testing.T) {
	g := NewGeometry(3, 5, 7, true)
	gr := NewGrid(g)
	p := Partition{Base: Coord{2, 4, 6}, Shape: Shape{2, 3, 4}} // wraps all axes
	if err := gr.Allocate(p, 1); err != nil {
		t.Fatal(err)
	}
	assertSummaries(t, gr)
	cl := gr.Clone()
	assertSummaries(t, cl)
	restored, err := NewGridFromOwners(g, gr.Owners())
	if err != nil {
		t.Fatal(err)
	}
	assertSummaries(t, restored)
	if !slices.Equal(restored.Occupancy(), gr.Occupancy()) {
		t.Fatal("restored grid's occupancy differs")
	}
	if err := cl.Release(p, 1); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(cl.Occupancy(), gr.Occupancy()) {
		t.Fatal("clone shares the original's occupancy storage")
	}
	if err := cl.CopyFrom(gr); err != nil {
		t.Fatal(err)
	}
	assertSummaries(t, cl)
	if !slices.Equal(cl.Occupancy(), gr.Occupancy()) {
		t.Fatal("CopyFrom left the occupancy behind")
	}
}

// TestGridColumnBits: every column word agrees with NodeFree node by
// node after Allocate, Release, CopyFrom and NewGridFromOwners, on
// geometries whose columns straddle a word boundary (3x5x7: column 9
// is bits 63-69; 1x3x33) or fill a whole word (2x2x64).
func TestGridColumnBits(t *testing.T) {
	for _, g := range []Geometry{
		NewGeometry(3, 5, 7, true),
		NewGeometry(3, 5, 7, false),
		NewGeometry(1, 3, 33, true),
		NewGeometry(2, 2, 64, true),
		BlueGeneL(),
	} {
		t.Run(g.Spec(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.N())))
			gr := NewGrid(g)
			var live []Partition
			d := g.Dims
			for owner := int64(1); owner <= 64; owner++ {
				p := Partition{
					Base:  Coord{rng.Intn(d.X), rng.Intn(d.Y), rng.Intn(d.Z)},
					Shape: Shape{1 + rng.Intn(d.X), 1 + rng.Intn(d.Y), 1 + rng.Intn((d.Z+1)/2)},
				}
				if g.ValidPartition(p) && gr.PartitionFree(p) {
					if err := gr.Allocate(p, owner); err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				}
			}
			if len(live) < 4 {
				t.Fatalf("only %d partitions placed", len(live))
			}
			steps := []struct {
				name string
				run  func() (*Grid, error)
			}{
				{"allocate", func() (*Grid, error) { return gr, nil }},
				{"release", func() (*Grid, error) {
					for _, p := range live[:len(live)/2] {
						if err := gr.Release(p, gr.OwnerAt(g.Index(p.Base))); err != nil {
							return nil, err
						}
					}
					return gr, nil
				}},
				{"copyfrom", func() (*Grid, error) {
					dst := NewGrid(g)
					if err := dst.Allocate(Partition{Shape: g.Dims}, 1); err != nil {
						return nil, err
					}
					return dst, dst.CopyFrom(gr)
				}},
				{"fromowners", func() (*Grid, error) { return NewGridFromOwners(g, gr.Owners()) }},
			}
			for _, st := range steps {
				got, err := st.run()
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				for col := 0; col < g.Dims.X*g.Dims.Y; col++ {
					var want uint64
					for z := 0; z < g.Dims.Z; z++ {
						if !got.NodeFree(col*g.Dims.Z + z) {
							want |= 1 << z
						}
					}
					if bits := got.ColumnBits(col); bits != want {
						t.Fatalf("%s: ColumnBits(%d) = %#x, NodeFree says %#x", st.name, col, bits, want)
					}
				}
			}
		})
	}
}

// TestGridRandomWorkload exercises a long random allocate/release
// sequence and checks the free-count invariant throughout.
func TestGridRandomWorkload(t *testing.T) {
	g := BlueGeneL()
	gr := NewGrid(g)
	rng := rand.New(rand.NewSource(99))
	type alloc struct {
		p     Partition
		owner int64
	}
	var live []alloc
	nextOwner := int64(1)
	for step := 0; step < 5000; step++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			a := live[i]
			if err := gr.Release(a.p, a.owner); err != nil {
				t.Fatalf("step %d: Release(%v): %v", step, a.p, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			p := Partition{
				Base:  Coord{rng.Intn(4), rng.Intn(4), rng.Intn(8)},
				Shape: Shape{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(3)},
			}
			if gr.PartitionFree(p) {
				if err := gr.Allocate(p, nextOwner); err != nil {
					t.Fatalf("step %d: Allocate(%v): %v", step, p, err)
				}
				live = append(live, alloc{p, nextOwner})
				nextOwner++
			}
		}
		want := g.N()
		for _, a := range live {
			want -= a.p.Size()
		}
		if gr.FreeCount() != want {
			t.Fatalf("step %d: FreeCount = %d, want %d", step, gr.FreeCount(), want)
		}
		if step%500 == 0 {
			assertSummaries(t, gr)
		}
	}
	assertSummaries(t, gr)
}

// TestGridFootprint: the column-word count and occupancy of a
// partition agree with a node-by-node walk, for random node sets and
// random single-node occupancy, on every valid partition of small
// machines — wrapping on the tori, and with columns that straddle a
// word (3x5x7, 1x3x33) or fill one (2x2x64).
func TestGridFootprint(t *testing.T) {
	for _, g := range []Geometry{
		NewGeometry(4, 4, 8, true),
		NewGeometry(3, 5, 7, true),
		NewGeometry(3, 5, 7, false),
		NewGeometry(1, 3, 33, true),
		NewGeometry(2, 2, 64, true),
	} {
		t.Run(g.Spec(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.N())))
			d := g.Dims
			for trial := 0; trial < 4; trial++ {
				gr := NewGrid(g)
				set := make([]uint64, (g.N()+63)/64)
				for id := 0; id < g.N(); id++ {
					if rng.Intn(6) == 0 {
						if err := gr.Allocate(Partition{Base: g.CoordOf(id), Shape: Shape{1, 1, 1}}, 1); err != nil {
							t.Fatal(err)
						}
					}
					if rng.Intn(5) == 0 {
						set[id>>6] |= 1 << (id & 63)
					}
				}
				checked := 0
				for i := 0; i < 3000; i++ {
					p := Partition{
						Base:  Coord{rng.Intn(d.X), rng.Intn(d.Y), rng.Intn(d.Z)},
						Shape: Shape{1 + rng.Intn(d.X), 1 + rng.Intn(d.Y), 1 + rng.Intn(d.Z)},
					}
					if !g.ValidPartition(p) {
						continue
					}
					want := 0
					g.ForEachNode(p, func(id int) bool {
						want += int(set[id>>6] >> (id & 63) & 1)
						return true
					})
					k, busy := gr.Footprint(set, p)
					if k != want || busy == gr.PartitionFree(p) {
						t.Fatalf("%v: Footprint = %d, busy %v; node walk %d, free %v", p, k, busy, want, gr.PartitionFree(p))
					}
					if k0, busy0 := gr.Footprint(nil, p); k0 != 0 || busy0 != busy {
						t.Fatalf("%v: Footprint(nil) = %d, %v", p, k0, busy0)
					}
					checked++
				}
				if checked < 100 {
					t.Fatalf("only %d valid partitions checked", checked)
				}
			}
		})
	}
}

// TestAppendNodes: AppendNodes lists Nodes' ids into a reused buffer
// without allocating.
func TestAppendNodes(t *testing.T) {
	g := NewGeometry(3, 5, 7, true)
	p := Partition{Base: Coord{2, 4, 5}, Shape: Shape{2, 3, 4}}
	buf := g.AppendNodes(nil, p)
	if !slices.Equal(buf, g.Nodes(p)) {
		t.Fatalf("AppendNodes = %v, Nodes = %v", buf, g.Nodes(p))
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = g.AppendNodes(buf[:0], p) }); allocs != 0 {
		t.Fatalf("AppendNodes into a large enough buffer allocates %v times", allocs)
	}
}
