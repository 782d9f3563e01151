// Package partition implements the free-partition search algorithms the
// scheduler relies on: the naive exhaustive search, a Projection-of-
// Partitions (POP) style dynamic-programming finder in the spirit of
// Krevat et al., and the paper's shape-enumeration finder (Appendix 9),
// which reads a base's free z-windows from one-word column bitsets; and
// the maximal free partition (MFP), read from the occupancy bit-sliced
// into one-word rows.
//
// All finders return exactly the same set of partitions; they differ
// only in asymptotic cost. The set is the paper's FREEPARTS: every
// free, contiguous, rectangular partition of a requested size.
//
// Canonicalisation: when a shape spans a full torus dimension, every
// base along that dimension denotes the same node set; finders emit
// only the base with component 0, so each distinct node set appears
// exactly once.
package partition

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"bgsched/internal/torus"
)

// Finder enumerates all free partitions of an exact size.
type Finder interface {
	// FreeOfSize returns every free partition of exactly size nodes,
	// canonicalised and in deterministic order.
	FreeOfSize(gr *torus.Grid, size int) []torus.Partition
	// Name identifies the algorithm in benchmarks and reports.
	Name() string
}

// BufferedFinder is the optional allocation-free query capability of a
// Finder: FreeOfSizeInto answers into a caller-owned buffer instead of
// handing out a fresh slice. The scheduler detects it by type assertion
// and reuses one candidate buffer across decisions, which is what keeps
// the simulator's steady-state event loop free of per-event heap
// allocations. Implementations must return exactly the partitions (and
// order) FreeOfSize would.
type BufferedFinder interface {
	Finder
	// FreeOfSizeInto appends every free partition of exactly size nodes
	// to buf[:0] and returns it. The result aliases buf (or its
	// reallocation) and is valid only until the buffer's next use.
	FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition
}

// Names lists the selectable finder names in ByName order. "fast" is
// another name for "shape", kept so configs, journals and snapshots
// that name it still run.
var Names = []string{"naive", "pop", "shape", "fast", "anneal"}

// ByName constructs the named finder algorithm: "naive", "pop",
// "shape" (also for an empty name and for "fast") or "anneal". seed
// steers the anneal finder's placement search; the other algorithms
// are deterministic and ignore it. An unknown name is rejected with
// the registered names listed.
func ByName(name string, seed int64) (Finder, error) {
	switch name {
	case "", "shape", "fast":
		return ShapeFinder{}, nil
	case "naive":
		return NaiveFinder{}, nil
	case "pop":
		return POPFinder{}, nil
	case "anneal":
		return NewAnnealFinder(seed), nil
	}
	return nil, fmt.Errorf("partition: unknown finder %q (registered finders: %s)",
		name, strings.Join(Names, ", "))
}

// baseRange returns the number of candidate base positions along a
// dimension of extent dim for a shape extent ext.
func baseRange(dim, ext int, wrap bool) int {
	if ext > dim {
		return 0
	}
	if !wrap {
		return dim - ext + 1
	}
	if ext == dim {
		return 1 // all bases equivalent; canonical base is 0
	}
	return dim
}

// partitionLess is the canonical finder output order: lexicographic by
// shape then base. Candidates within one finder result are always
// distinct, so the order is total and algorithm-independent.
func partitionLess(a, b torus.Partition) bool {
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

// sortPartitions orders partitions lexicographically by shape then base,
// giving every finder the same deterministic output order. Elements are
// distinct, so any comparison sort yields the same result; a hand-rolled
// heapsort (after an already-sorted fast path — enumeration emits in
// order) keeps the hot path allocation-free, unlike sort.Slice, whose
// reflective swapper escapes to the heap on every call.
func sortPartitions(ps []torus.Partition) {
	sorted := true
	for i := 1; i < len(ps); i++ {
		if partitionLess(ps[i], ps[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	n := len(ps)
	for i := n/2 - 1; i >= 0; i-- {
		siftPartitions(ps, i, n)
	}
	for i := n - 1; i > 0; i-- {
		ps[0], ps[i] = ps[i], ps[0]
		siftPartitions(ps, 0, i)
	}
}

// siftPartitions restores the max-heap property for root i over ps[:n].
func siftPartitions(ps []torus.Partition, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && partitionLess(ps[c], ps[c+1]) {
			c++
		}
		if !partitionLess(ps[i], ps[c]) {
			return
		}
		ps[i], ps[c] = ps[c], ps[i]
		i = c
	}
}

// computeRunsInto fills runs[i] with the length of the maximal run of
// true values starting at index i (wrap-aware, capped at n).
// len(runs) must be >= n; val is consulted for indices [0, n).
func computeRunsInto(val func(int) bool, n int, wrap bool, runs []int) {
	allTrue := true
	for i := n - 1; i >= 0; i-- {
		if !val(i) {
			runs[i] = 0
			allTrue = false
		} else if i == n-1 {
			runs[i] = 1
		} else {
			runs[i] = runs[i+1] + 1
		}
	}
	if allTrue {
		for i := 0; i < n; i++ {
			runs[i] = n
		}
		return
	}
	if wrap && n > 1 && val(n-1) && val(0) {
		// Extend runs touching the high edge around the wrap point.
		head := runs[0]
		for i := n - 1; i >= 0 && val(i); i-- {
			runs[i] += head
			if runs[i] > n {
				runs[i] = n
			}
		}
	}
}

// mfpScratch holds the buffers of an MFP sweep: the occupancy
// bit-sliced by z into row words, and the windows of one base plane.
// The MFPCache owns one and slices it once per occupancy state;
// MaxFree fills a pooled one per call, so repeated evaluations do not
// allocate.
type mfpScratch struct {
	rows   []uint64 // Z*X words: bit y of rows[z*X+x] set iff node (x, y, z) is busy
	wins   []uint64 // Z*X words: free rows of the windows (bz, 1..Z) of one bz
	usable []int    // Z counts: free (x, y) columns of each of those windows
	mask   []uint64 // X words: the plate's free rows, where every window starts
	bases  []uint64 // X words: each window row's free y-bases at one height
	acc    []uint64 // X words: the y-bases shared by w consecutive rows
}

var scratchPool = sync.Pool{New: func() any { return new(mfpScratch) }}

// slice bit-slices gr's occupancy into s.rows and sizes the other
// buffers for its geometry. MaxDim = 64 keeps a row of Y nodes inside
// one word on every geometry.
func (s *mfpScratch) slice(gr *torus.Grid) {
	d := gr.Geometry().Dims
	n := d.Z * d.X
	s.rows = slices.Grow(s.rows[:0], n)[:n]
	s.wins = slices.Grow(s.wins[:0], n)[:n]
	s.usable = slices.Grow(s.usable[:0], d.Z)[:d.Z]
	s.mask = slices.Grow(s.mask[:0], d.X)[:d.X]
	s.bases = slices.Grow(s.bases[:0], d.X)[:d.X]
	s.acc = slices.Grow(s.acc[:0], d.X)[:d.X]
	clear(s.rows)
	col := 0
	for x := 0; x < d.X; x++ {
		for y := 0; y < d.Y; y++ {
			for b := gr.ColumnBits(col); b != 0; b &= b - 1 {
				s.rows[bits.TrailingZeros64(b)*d.X+x] |= 1 << y
			}
			col++
		}
	}
}

// plate is the slab of whole planes an MFP probe blocks on one axis
// (0 = x, 1 = y, 2 = z): every node whose coordinate on axis lies in
// the cyclic span [start, start+length). The zero plate (length 0)
// blocks nothing.
type plate struct{ axis, start, length int }

// covers reports whether coordinate k of axis (of extent dim) lies in
// the plate.
func (pl plate) covers(axis, k, dim int) bool {
	if axis != pl.axis || pl.length == 0 {
		return false
	}
	if k < pl.start {
		k += dim
	}
	return k < pl.start+pl.length
}

// MaxFree returns the maximal free partition (MFP) of the grid: the
// free, contiguous, rectangular partition with the greatest node count,
// and that count. If the machine is completely full it returns size 0.
//
// The MFP is the quantity Krevat's heuristic (and this paper's L_MFP
// factor) is built on. The implementation bit-slices the grid into row
// words, projects each z-window onto the x-y plane with one AND-NOT per
// row and reads the plane's largest free rectangle from the projected
// rows, reusing pooled scratch buffers so repeated hypothetical-
// placement evaluations do not allocate.
func MaxFree(gr *torus.Grid) (torus.Partition, int) {
	sc := scratchPool.Get().(*mfpScratch)
	defer scratchPool.Put(sc)
	sc.slice(gr)
	return sc.sweep(gr.Geometry(), plate{})
}

// sweep returns the MFP of the state sliced into s.rows with pl
// blocked, and its size. A plate becomes row masks: an x-plate zeroes
// its rows, a y-plate clears its window from every row, and a z-plate
// ends a window where the window reaches it.
func (s *mfpScratch) sweep(g torus.Geometry, pl plate) (torus.Partition, int) {
	d := g.Dims
	free := lowBits(d.Y)
	if pl.axis == 1 {
		free &^= torus.WindowMask(d.Y, pl.start, pl.length)
	}
	for x := range s.mask {
		s.mask[x] = free
		if pl.covers(0, x, d.X) {
			s.mask[x] = 0
		}
	}

	best := 0
	var bestPart torus.Partition
	plane := d.X * d.Y
	for bz := 0; bz < d.Z; bz++ {
		// The longest window at bz: up to the mesh's top edge, and on a
		// torus the whole ring only from its canonical base 0.
		maxSz := d.Z - bz
		if g.Wrap {
			maxSz = d.Z
			if bz != 0 {
				maxSz = d.Z - 1
			}
		}
		if plane*maxSz <= best {
			continue
		}
		// Window (bz, sz) is window (bz, sz-1) AND-NOT plane bz+sz-1,
		// cyclic on a torus, so it has no more usable columns than the
		// shorter one. The build ends at a window whose usable columns
		// could not beat best even at the longest length: no longer
		// window can.
		n := 0
		for prev := s.mask; n < maxSz; n++ {
			k := bz + n
			if k >= d.Z {
				k -= d.Z
			}
			if pl.covers(2, k, d.Z) {
				break
			}
			cur, busy := s.wins[n*d.X:(n+1)*d.X], s.rows[k*d.X:(k+1)*d.X]
			usable := 0
			for x, r := range prev {
				cur[x] = r &^ busy[x]
				usable += bits.OnesCount64(cur[x])
			}
			if usable*maxSz <= best {
				break
			}
			s.usable[n] = usable
			prev = cur
		}
		// Descending sz gives the strongest pruning: once a window
		// cannot beat the best volume even with a full plane, no
		// smaller sz at this bz can either.
		for sz := n; sz >= 1; sz-- {
			if plane*sz <= best {
				break
			}
			if s.usable[sz-1]*sz <= best {
				continue
			}
			win := s.wins[(sz-1)*d.X : sz*d.X]
			area, bx, by, sx, sy := s.maxRect(win, d.Y, g.Wrap, best/sz)
			if area*sz > best {
				best = area * sz
				bestPart = torus.Partition{
					Base:  torus.Coord{X: bx, Y: by, Z: bz},
					Shape: torus.Shape{X: sx, Y: sy, Z: sz},
				}
			}
		}
	}
	return bestPart, best
}

// maxRect finds the largest free rectangle of the projected plane win
// (one dy-bit free-row word per x, wrap-aware in both dimensions) whose
// area exceeds floor; it returns area = floor if there is none. For
// each height h, windowBases of each row gives the free y-bases of
// that height, and AND-ing w consecutive rows gives the bases of a
// w×h rectangle. Rectangles spanning a full dimension come out at
// base 0.
func (s *mfpScratch) maxRect(win []uint64, dy int, wrap bool, floor int) (area, bx, by, sx, sy int) {
	dx := len(win)
	area = floor
	for h := dy; h >= 1 && dx*h > area; h-- {
		keep := lowBits(baseRange(dy, h, wrap))
		var any uint64
		for x, r := range win {
			b := windowBases(^r, dy, h, wrap) & keep
			s.bases[x], s.acc[x] = b, b
			any |= b
		}
		// s.acc[x] holds the bases of the w×h rectangles at x; stop at
		// the first w with none.
		for w := 1; any != 0; w++ {
			n := baseRange(dx, w, wrap)
			if w > 1 {
				any = 0
				for x := 0; x < n; x++ {
					next := x + w - 1
					if next >= dx {
						next -= dx
					}
					s.acc[x] &= s.bases[next]
					any |= s.acc[x]
				}
			}
			if any != 0 && w*h > area {
				for x := 0; x < n; x++ {
					if s.acc[x] != 0 {
						area, bx, by, sx, sy = w*h, x, bits.TrailingZeros64(s.acc[x]), w, h
						break
					}
				}
			}
			if w == dx {
				break
			}
		}
	}
	return
}

// MaxFreeSize returns just the size of the maximal free partition.
func MaxFreeSize(gr *torus.Grid) int {
	_, s := MaxFree(gr)
	return s
}
