package partition

import (
	"slices"
	"sync"

	"bgsched/internal/torus"
)

// FastFinder is the fast-path free-partition search: ShapeFinder's
// enumeration (the paper's Appendix 9 algorithm over column words)
// behind a memoized result cache.
//
// Results are cached per (geometry, occupancy hash, size) in a
// direct-mapped slot table whose entries own reusable backing storage,
// so both hits and misses are allocation-free in steady state.
// Repeated queries between state changes are O(1), and because the
// hash depends only on the free/busy pattern, a state *recurrence* (an
// allocate followed by the matching release) re-hits the cache.
// Entries are never served for another state: a hit also compares the
// exact occupancy, so a hash or slot collision merely recomputes. No
// other state is derived from a grid, so nothing can go stale.
//
// The zero value is ready to use. FastFinder is stateful and safe for
// concurrent use; a single mutex serialises queries, which matches the
// single-threaded scheduler hot path it serves.
type FastFinder struct {
	// Metrics, when non-nil, receives per-call search-cost telemetry
	// plus the fast path's cache hit/miss counters.
	Metrics *Metrics

	mu      sync.Mutex
	results []resultSlot // direct-mapped memoized candidates
	scratch shapeScratch // enumeration scratch, reused under mu
}

// NewFastFinder returns an empty fast finder.
func NewFastFinder() *FastFinder { return &FastFinder{} }

// Name implements Finder.
func (f *FastFinder) Name() string { return "fast" }

// resultSlots sizes the direct-mapped result cache (a power of two).
// A BG/L-sized machine sees a few dozen distinct (state, size) pairs
// between state changes; 512 slots give recurrence hits headroom while
// bounding retained storage.
const resultSlots = 512

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
	if gr.FreeCount() < size { // fewer free nodes than requested: no candidate exists
		f.Metrics.observe(sw, 0, 0, 0)
		return nil
	}
	g := gr.Geometry()
	sc := &f.scratch
	sc.shapes = g.AppendShapesOf(sc.shapes[:0], size)
	if len(sc.shapes) == 0 {
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
	f.Metrics.cacheMiss()

	slot.key = key
	slot.occ = append(slot.occ[:0], gr.Occupancy()...)
	slot.used = true
	var bases, rejects int
	slot.parts, bases, rejects = sc.appendFree(gr, slot.parts[:0])
	f.Metrics.observe(sw, len(slot.parts), bases, rejects)
	return slot.parts
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
