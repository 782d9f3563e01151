package partition

import (
	"slices"

	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// MFPCache memoizes the maximal-free-partition questions a scheduler
// asks about one occupancy state: MaxFree, and MaxFree of the grid
// with a hypothetical placement p added.
//
// Probes rest on an exact identity. Two boxes are disjoint iff their
// projections are disjoint on some axis, so a box that stays free
// after placing p is a free box avoiding p's plate on some axis: every
// node whose coordinate on that axis lies in p's span. MFP(grid + p)
// is thus the largest of three MFPs, each of the grid with one of p's
// plates blocked. A plate depends only on (axis, start, length), so a
// state has at most X²+Y²+Z² of them (96 on the 4x4x8 torus), each
// swept once; a plate spanning the whole ring contributes 0.
//
// The memo is keyed on the grid's geometry and exact occupancy bitset
// (torus.Grid.Occupancy): a query about any other state starts a fresh
// memo, so no answer comes from another state and callers never
// invalidate by hand. A fresh memo bit-slices the state into row words
// once, and MaxFree and every plate sweep of that state read them.
// Lookups allocate nothing once the buffers fit the geometry. Not safe
// for concurrent use; the zero value is ready.
type MFPCache struct {
	// Sweeps, when non-nil, counts every sweep the cache runs: MaxFree
	// and plate sweeps alike.
	Sweeps *telemetry.Counter

	geom    torus.Geometry
	key     []uint64 // occupancy bitset of the memoized state
	gen     uint64   // bumped per state; memos of other generations are stale
	free    mfpMemo
	plates  []mfpMemo // axis-major, then start, then length-1
	scratch mfpScratch
	hits    uint64
	misses  uint64
}

// mfpMemo is one memoized answer, current while gen is the cache's.
type mfpMemo struct {
	gen  uint64
	part torus.Partition
	size int
}

// NewMFPCache returns an empty cache.
func NewMFPCache() *MFPCache { return new(MFPCache) }

// sync starts a fresh memo unless gr is in the memoized state.
func (c *MFPCache) sync(gr *torus.Grid) {
	g, occ := gr.Geometry(), gr.Occupancy()
	if g == c.geom && slices.Equal(occ, c.key) {
		return
	}
	if g != c.geom { // the zero geometry matches no grid's
		c.plates = make([]mfpMemo, g.Dims.X*g.Dims.X+g.Dims.Y*g.Dims.Y+g.Dims.Z*g.Dims.Z)
	}
	c.geom = g
	c.key = append(c.key[:0], occ...)
	c.gen++
	c.scratch.slice(gr)
}

// MaxFree returns MaxFree(gr), computed once per occupancy state.
func (c *MFPCache) MaxFree(gr *torus.Grid) (torus.Partition, int) {
	c.sync(gr)
	if c.free.gen != c.gen {
		c.Sweeps.Inc()
		part, size := c.scratch.sweep(c.geom, plate{})
		c.free = mfpMemo{c.gen, part, size}
	}
	return c.free.part, c.free.size
}

// MaxFreeProbe returns MaxFree of gr as it would be with p allocated,
// without mutating the grid: the best of p's plate answers, so the
// partition returned is free and disjoint from p. The caller is
// responsible for p being valid and free.
func (c *MFPCache) MaxFreeProbe(gr *torus.Grid, p torus.Partition) (torus.Partition, int) {
	c.sync(gr)
	d := gr.Geometry().Dims
	spans := [3][3]int{ // start, length, extent per axis
		{p.Base.X, p.Shape.X, d.X}, {p.Base.Y, p.Shape.Y, d.Y}, {p.Base.Z, p.Shape.Z, d.Z}}
	var best mfpMemo
	idx := 0 // first plate index of the axis
	for axis, s := range spans {
		start, length, dim := s[0], s[1], s[2]
		if length < dim {
			if m := c.plateMFP(plate{axis, start, length}, idx+start*dim+length-1); m.size > best.size {
				best = m
			}
		}
		idx += dim * dim
	}
	return best.part, best.size
}

// plateMFP returns MaxFree of the memoized state with pl blocked,
// memoized at index idx.
func (c *MFPCache) plateMFP(pl plate, idx int) mfpMemo {
	m := &c.plates[idx]
	if m.gen == c.gen {
		c.hits++
		return *m
	}
	c.misses++
	c.Sweeps.Inc()
	part, size := c.scratch.sweep(c.geom, pl)
	*m = mfpMemo{c.gen, part, size}
	return *m
}

// Stats reports plate lookups answered from the memo (hits) and swept
// (misses) since construction; a nil cache reports zeros.
func (c *MFPCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits, c.misses
}
