package partition_test

import (
	"math/bits"
	"testing"

	"bgsched/internal/partition"
	"bgsched/internal/torus"
)

// allocNodes makes each listed node of gr busy.
func allocNodes(t *testing.T, gr *torus.Grid, ids []int) {
	t.Helper()
	g := gr.Geometry()
	for _, id := range ids {
		if err := gr.Allocate(torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// dependentNodes returns a subset of ids (at most 128 of them) whose
// occupancy-hash keys XOR to zero, so that making exactly those nodes
// busy leaves every occupancy hash unchanged, or nil if the keys are
// linearly independent over GF(2). Each key is read off a grid holding
// only that node.
func dependentNodes(t *testing.T, g torus.Geometry, ids []int) []int {
	t.Helper()
	var basis [64]uint64   // basis[b]: reduced key with leading bit b
	var sets [64][2]uint64 // sets[b]: bit i set iff ids[i] is XORed into basis[b]
	for i, id := range ids {
		one := torus.NewGrid(g)
		allocNodes(t, one, []int{id})
		v := one.OccupancyHash()
		var set [2]uint64
		set[i/64] |= 1 << (i % 64)
		for v != 0 {
			b := 63 - bits.LeadingZeros64(v)
			if basis[b] == 0 {
				basis[b], sets[b] = v, set
				break
			}
			v ^= basis[b]
			set[0] ^= sets[b][0]
			set[1] ^= sets[b][1]
		}
		if v == 0 {
			var out []int
			for j := 0; j <= i; j++ {
				if set[j/64]>>(j%64)&1 == 1 {
					out = append(out, ids[j])
				}
			}
			return out
		}
	}
	return nil
}

// TestMemosNeverAnswerForACollidingState: 65 keys of 64 bits are
// dependent, so some busy node set of the 4x4x8 torus hashes like the
// empty grid. After answering for the empty grid, the MFP memo must
// answer that grid for itself, exactly as the unmemoized MaxFree does.
func TestMemosNeverAnswerForACollidingState(t *testing.T) {
	g := torus.BlueGeneL()
	ids := make([]int, 65)
	for i := range ids {
		ids[i] = i
	}
	empty := torus.NewGrid(g)
	busy := torus.NewGrid(g)
	allocNodes(t, busy, dependentNodes(t, g, ids))
	if busy.OccupancyHash() != empty.OccupancyHash() || busy.FreeCount() == g.N() {
		t.Fatal("no colliding node set found")
	}
	t.Logf("%d busy nodes hash like the empty grid", g.N()-busy.FreeCount())

	mfp := partition.NewMFPCache()
	if _, got := mfp.MaxFree(empty); got != g.N() {
		t.Fatalf("MFPCache.MaxFree(empty) = %d, want %d", got, g.N())
	}
	_, want := partition.MaxFree(busy)
	if _, got := mfp.MaxFree(busy); got != want {
		t.Errorf("MFPCache.MaxFree = %d on the colliding grid, MaxFree = %d", got, want)
	}
}
