package partition

import (
	"slices"
	"sync"

	"bgsched/internal/torus"
)

// FastFinder is the fast-path free-partition search: the same result
// set as ShapeFinder (the paper's Appendix 9 algorithm), produced from
// incrementally maintained occupancy state instead of per-query scans,
// with a memoized result cache.
//
// Two layers make it fast:
//
//  1. Incremental occupancy. The grid maintains per-column and
//     per-plane projection counts and an occupancy hash in O(1) per
//     node on allocate/release. The finder derives per-column busy
//     prefix sums from them and resynchronises only the columns the
//     grid reported dirty through its column-invalidation callback
//     since the last query — O(changed volume), not O(machine), per
//     state change, without even scanning the unchanged columns.
//  2. Memoized candidates. Results are cached per (occupancy hash,
//     size) in a direct-mapped slot table whose entries own reusable
//     backing storage, so both hits and misses are allocation-free in
//     steady state. Repeated queries between state changes are O(1),
//     and because the hash depends only on the free/busy pattern, a
//     state *recurrence* (an allocate followed by the matching
//     release) re-hits the cache. Entries are never served for another
//     state: a hit also compares the exact occupancy, so a hash or slot
//     collision merely recomputes.
//
// The zero value is ready to use. FastFinder is stateful and safe for
// concurrent use; a single mutex serialises queries, which matches the
// single-threaded scheduler hot path it serves.
type FastFinder struct {
	// Metrics, when non-nil, receives per-call search-cost telemetry
	// plus the fast path's cache hit/miss/invalidation counters.
	Metrics *Metrics

	mu      sync.Mutex
	grids   map[uint64]*fastGridState // derived occupancy, by Grid.ID()
	gridAge []uint64                  // grid eviction order (FIFO)
	results []resultSlot              // direct-mapped memoized candidates

	// Enumeration scratch, reused across calls under mu so cache misses
	// do not allocate in steady state.
	shapes []torus.Shape
	freeZ  []int
	bzBuf  []int
}

// NewFastFinder returns an empty fast finder.
func NewFastFinder() *FastFinder { return &FastFinder{} }

// Name implements Finder.
func (f *FastFinder) Name() string { return "fast" }

const (
	// maxCachedGrids bounds the per-grid derived state kept alive; the
	// scheduler touches the live grid plus a handful of reservation
	// scratch clones per decision.
	maxCachedGrids = 8
	// resultSlots sizes the direct-mapped result cache (a power of
	// two). A BG/L-sized machine sees a few dozen distinct (state,
	// size) pairs between invalidations; 512 slots give recurrence
	// hits headroom while bounding retained storage.
	resultSlots = 512
)

// fastKey identifies a memoized result: the machine geometry, the
// occupancy pattern (by hash) and the requested size. The geometry is
// part of the key because the occupancy hash alone cannot distinguish
// machines — every all-free grid hashes to zero — and one finder may
// serve grids of different geometries or topologies.
type fastKey struct {
	geom torus.Geometry
	hash uint64
	size int
}

// slotIndex maps a key onto the direct-mapped result table.
func (k fastKey) slotIndex() int {
	h := k.hash ^ (k.hash >> 32) ^ (uint64(k.size) * 0x9e3779b97f4a7c15)
	return int(h & (resultSlots - 1))
}

// resultSlot is one direct-mapped cache entry. occ (the occupancy it
// answers for) and parts are slot-owned backing storage, truncated and
// refilled in place on overwrite so the steady state allocates nothing.
type resultSlot struct {
	key   fastKey
	occ   []uint64
	parts []torus.Partition
	used  bool
}

// fastGridState is the finder's derived view of one grid: per-column
// busy prefix sums over z and the dirty-column set reported by the
// grid's invalidation callback since the last sync.
type fastGridState struct {
	pre    []int // (dimZ+1) prefix sums of busy cells per column
	synced bool  // false until the first full build

	dirty     []int  // columns touched since last sync, deduped
	dirtyMark []bool // membership bitmap for dirty
	detach    func() // unregisters the column watcher on eviction
}

// markDirty is the grid column-invalidation callback.
func (st *fastGridState) markDirty(col int) {
	if !st.dirtyMark[col] {
		st.dirtyMark[col] = true
		st.dirty = append(st.dirty, col)
	}
}

// windowBusy reports whether the (possibly wrapping) z-window
// [bz, bz+sz) of column col contains any busy cell, in O(1) from the
// prefix sums.
func (st *fastGridState) windowBusy(col, bz, sz, dimZ int) bool {
	base := col * (dimZ + 1)
	if end := bz + sz; end <= dimZ {
		return st.pre[base+end]-st.pre[base+bz] > 0
	}
	return st.pre[base+dimZ]-st.pre[base+bz]+st.pre[base+bz+sz-dimZ] > 0
}

// state returns (creating if needed) the derived state for gr,
// evicting the oldest grid beyond the cache bound. A new state
// subscribes to the grid's column-invalidation callback so later syncs
// touch only the columns that actually changed; eviction unsubscribes.
func (f *FastFinder) state(gr *torus.Grid) *fastGridState {
	if f.grids == nil {
		f.grids = make(map[uint64]*fastGridState)
	}
	id := gr.ID()
	if st, ok := f.grids[id]; ok {
		return st
	}
	if len(f.gridAge) >= maxCachedGrids {
		old := f.gridAge[0]
		if ost := f.grids[old]; ost != nil && ost.detach != nil {
			ost.detach()
		}
		delete(f.grids, old)
		f.gridAge = f.gridAge[1:]
	}
	g := gr.Geometry()
	cols := g.Dims.X * g.Dims.Y
	st := &fastGridState{
		pre:       make([]int, cols*(g.Dims.Z+1)),
		dirty:     make([]int, 0, cols),
		dirtyMark: make([]bool, cols),
	}
	h := gr.AddColumnWatcher(st.markDirty)
	st.detach = func() { gr.RemoveColumnWatcher(h) }
	f.grids[id] = st
	f.gridAge = append(f.gridAge, id)
	return st
}

// syncCol rebuilds one column's prefix sums.
func (st *fastGridState) syncCol(gr *torus.Grid, col, dimZ int) {
	base := col * (dimZ + 1)
	node := col * dimZ
	sum := 0
	st.pre[base] = 0
	for z := 0; z < dimZ; z++ {
		if !gr.NodeFree(node + z) {
			sum++
		}
		st.pre[base+z+1] = sum
	}
}

// sync brings the prefix sums up to date with gr. The first call
// builds every column; afterwards only the columns the grid reported
// dirty are rebuilt. Returns how many columns were rebuilt.
func (st *fastGridState) sync(gr *torus.Grid) int {
	dimZ := gr.Geometry().Dims.Z
	rebuilt := len(st.dirty)
	if !st.synced {
		rebuilt = len(st.dirtyMark) // one mark per column
		for col := 0; col < rebuilt; col++ {
			st.syncCol(gr, col, dimZ)
		}
		st.synced = true
	} else {
		for _, col := range st.dirty {
			st.syncCol(gr, col, dimZ)
		}
	}
	for _, col := range st.dirty {
		st.dirtyMark[col] = false
	}
	st.dirty = st.dirty[:0]
	return rebuilt
}

// FreeOfSize implements Finder. The result is a fresh slice the caller
// may keep or mutate.
func (f *FastFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	f.mu.Lock()
	defer f.mu.Unlock()
	return clonePartitions(f.freeOfSizeLocked(gr, size))
}

// FreeOfSizeInto is FreeOfSize appending into buf[:0] instead of
// allocating, for callers that own a reusable candidate buffer. The
// returned slice is only valid until the buffer's next use.
func (f *FastFinder) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append(buf[:0], f.freeOfSizeLocked(gr, size)...)
}

// freeOfSizeLocked answers one query from the result cache, falling
// back to enumeration. The returned slice is cache-owned; callers copy.
func (f *FastFinder) freeOfSizeLocked(gr *torus.Grid, size int) []torus.Partition {
	sw := f.Metrics.startTimer()
	g := gr.Geometry()
	f.shapes = g.AppendShapesOf(f.shapes[:0], size)
	if len(f.shapes) == 0 {
		f.Metrics.noShapes(sw)
		return nil
	}

	key := fastKey{geom: g, hash: gr.OccupancyHash(), size: size}
	if f.results == nil {
		f.results = make([]resultSlot, resultSlots)
	}
	slot := &f.results[key.slotIndex()]
	if slot.used && slot.key == key && slices.Equal(slot.occ, gr.Occupancy()) {
		f.Metrics.cacheHit()
		f.Metrics.observe(sw, len(slot.parts), 0, 0)
		return slot.parts
	}

	st := f.state(gr)
	f.Metrics.cacheMiss(st.sync(gr))

	slot.key = key
	slot.occ = append(slot.occ[:0], gr.Occupancy()...)
	slot.used = true
	slot.parts = slot.parts[:0]
	bases, rejects := 0, 0
	if gr.FreeCount() >= size { // fewer free nodes than requested: no candidate exists
		slot.parts, bases, rejects = f.enumerate(gr, st, f.shapes, slot.parts)
	}
	f.Metrics.observe(sw, len(slot.parts), bases, rejects)
	return slot.parts
}

// enumerate runs the pruned shape enumeration in (shape, base x,
// base y, base z) order, appends the sorted candidates to out and
// returns it plus the bases-scanned / early-reject tallies. All scratch
// lives on the finder, so steady-state misses allocate nothing.
func (f *FastFinder) enumerate(gr *torus.Grid, st *fastGridState, shapes []torus.Shape, out []torus.Partition) ([]torus.Partition, int, int) {
	g := gr.Geometry()
	dims := g.Dims

	// Per-axis projection prune: a z-window is only worth scanning if
	// every z-plane it spans has at least shape.X*shape.Y free nodes.
	planeXY := dims.X * dims.Y
	f.freeZ = f.freeZ[:0]
	for z := 0; z < dims.Z; z++ {
		f.freeZ = append(f.freeZ, planeXY-gr.PlaneBusy(2, z))
	}

	bases, rejects := 0, 0
	for _, shape := range shapes {
		rx := baseRange(dims.X, shape.X, g.Wrap)
		ry := baseRange(dims.Y, shape.Y, g.Wrap)
		rz := baseRange(dims.Z, shape.Z, g.Wrap)
		f.bzBuf = f.bzBuf[:0]
		for bz := 0; bz < rz; bz++ {
			ok := true
			for dz := 0; dz < shape.Z; dz++ {
				z := bz + dz
				if z >= dims.Z {
					z -= dims.Z
				}
				if f.freeZ[z] < shape.X*shape.Y {
					ok = false
					break
				}
			}
			if ok {
				f.bzBuf = append(f.bzBuf, bz)
			} else {
				// The whole (bx, by) plane of bases at this bz dies at
				// once; account for them as pruned rejects.
				bases += rx * ry
				rejects += rx * ry
			}
		}
		for bx := 0; bx < rx; bx++ {
			for by := 0; by < ry; by++ {
			nextBase:
				for _, bz := range f.bzBuf {
					bases++
					for dx := 0; dx < shape.X; dx++ {
						x := bx + dx
						if x >= dims.X {
							x -= dims.X
						}
						row := x * dims.Y
						for dy := 0; dy < shape.Y; dy++ {
							y := by + dy
							if y >= dims.Y {
								y -= dims.Y
							}
							if st.windowBusy(row+y, bz, shape.Z, dims.Z) {
								rejects++
								continue nextBase
							}
						}
					}
					out = append(out, torus.Partition{
						Base:  torus.Coord{X: bx, Y: by, Z: bz},
						Shape: shape,
					})
				}
			}
		}
	}
	sortPartitions(out)
	return out, bases, rejects
}

// clonePartitions returns a defensive copy so cached slices can never
// be mutated by callers (empty in, nil out — finders report "no
// candidates" as nil).
func clonePartitions(ps []torus.Partition) []torus.Partition {
	if len(ps) == 0 {
		return nil
	}
	return append([]torus.Partition(nil), ps...)
}
