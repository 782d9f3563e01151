// Package partition implements the free-partition search algorithms the
// scheduler relies on: the naive exhaustive search, a Projection-of-
// Partitions (POP) style dynamic-programming finder in the spirit of
// Krevat et al., and the paper's shape-enumeration finder (Appendix 9),
// which reads a base's free z-windows from one-word column bitsets.
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

// Names lists the selectable finder algorithms in ByName order.
var Names = []string{"naive", "pop", "shape", "fast", "anneal"}

// ByName constructs the named finder algorithm: "naive", "pop",
// "shape" (also the default for an empty name), "fast" or "anneal".
// seed steers the anneal finder's placement search; the other
// algorithms are deterministic and ignore it. An unknown name is
// rejected with the registered names listed.
func ByName(name string, seed int64) (Finder, error) {
	switch name {
	case "", "shape":
		return ShapeFinder{}, nil
	case "naive":
		return NaiveFinder{}, nil
	case "pop":
		return POPFinder{}, nil
	case "fast":
		return NewFastFinder(), nil
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

// computeRunsBool is computeRunsInto specialised to a bool slice: the
// MFP sweeps call it in their innermost loops, where the generic
// version's indirect predicate call per element is measurable.
func computeRunsBool(vals []bool, wrap bool, runs []int) {
	n := len(vals)
	allTrue := true
	for i := n - 1; i >= 0; i-- {
		if !vals[i] {
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
	if wrap && n > 1 && vals[n-1] && vals[0] {
		head := runs[0]
		for i := n - 1; i >= 0 && vals[i]; i-- {
			runs[i] += head
			if runs[i] > n {
				runs[i] = n
			}
		}
	}
}

// mfpScratch holds reusable buffers for MaxFree; pooled to keep the
// hot placement-evaluation path allocation-free.
type mfpScratch struct {
	cols  []uint64 // dimX*dimY column words: busy or blocked by the plate
	colOK []bool   // dimX*dimY projected plane
	yRun  []int    // dimX*dimY y-run lengths on the plane
	rowOK []bool   // dimX row flags
	xRun  []int    // dimX x-run lengths
}

var scratchPool = sync.Pool{New: func() any { return new(mfpScratch) }}

func (s *mfpScratch) ensure(g torus.Geometry) {
	plane := g.Dims.X * g.Dims.Y
	if cap(s.colOK) < plane {
		s.cols = make([]uint64, plane)
		s.colOK = make([]bool, plane)
		s.yRun = make([]int, plane)
	}
	s.cols = s.cols[:plane]
	s.colOK = s.colOK[:plane]
	s.yRun = s.yRun[:plane]
	if cap(s.rowOK) < g.Dims.X {
		s.rowOK = make([]bool, g.Dims.X)
		s.xRun = make([]int, g.Dims.X)
	}
	s.rowOK = s.rowOK[:g.Dims.X]
	s.xRun = s.xRun[:g.Dims.X]
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

// fillCols sets one word per z-column: the column's busy bits with pl
// OR-ed in, a z-plate as its window and an x- or y-plate as the whole
// column.
func (s *mfpScratch) fillCols(gr *torus.Grid, pl plate) {
	dims := gr.Geometry().Dims
	var zPlate uint64
	if pl.axis == 2 {
		zPlate = windowMask(dims.Z, pl.start, pl.length)
	}
	col := 0
	for x := 0; x < dims.X; x++ {
		for y := 0; y < dims.Y; y++ {
			if pl.covers(0, x, dims.X) || pl.covers(1, y, dims.Y) {
				s.cols[col] = lowBits(dims.Z)
			} else {
				s.cols[col] = gr.ColumnBits(col) | zPlate
			}
			col++
		}
	}
}

// MaxFree returns the maximal free partition (MFP) of the grid: the
// free, contiguous, rectangular partition with the greatest node count,
// and that count. If the machine is completely full it returns size 0.
//
// The MFP is the quantity Krevat's heuristic (and this paper's L_MFP
// factor) is built on. The implementation projects each z-window onto a
// 2D plane and finds the plane's maximum all-true rectangle, reusing
// pooled scratch buffers so repeated hypothetical-placement evaluations
// do not allocate.
func MaxFree(gr *torus.Grid) (torus.Partition, int) {
	sc := scratchPool.Get().(*mfpScratch)
	defer scratchPool.Put(sc)
	return maxFreeWith(sc, gr, plate{})
}

// maxFreeWith is MaxFree of gr with pl blocked, on an explicit scratch
// for callers (the MFPCache) that own their buffers and must never
// touch the shared pool on the hot path.
func maxFreeWith(sc *mfpScratch, gr *torus.Grid, pl plate) (torus.Partition, int) {
	g := gr.Geometry()
	dims := g.Dims
	sc.ensure(g)
	sc.fillCols(gr, pl)

	best := 0
	var bestPart torus.Partition
	plane := dims.X * dims.Y

	for bz := 0; bz < dims.Z; bz++ {
		// Descending sz gives the strongest pruning: once a window
		// cannot beat the best volume even with a full plane, no
		// smaller sz at this bz can either.
		for sz := dims.Z; sz >= 1; sz-- {
			if plane*sz <= best {
				break
			}
			if g.Wrap && sz == dims.Z && bz != 0 {
				continue
			}
			if !g.Wrap && bz+sz > dims.Z {
				continue
			}
			// Project: column (x,y) is usable if no bit of its word
			// lies in the window.
			win := windowMask(dims.Z, bz, sz)
			usable := 0
			for col, w := range sc.cols {
				ok := w&win == 0
				sc.colOK[col] = ok
				if ok {
					usable++
				}
			}
			if usable*sz <= best {
				continue
			}
			area, bx, by, sx, sy := sc.maxRect2D(dims.X, dims.Y, g.Wrap)
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

// MaxFreeSize returns just the size of the maximal free partition.
func MaxFreeSize(gr *torus.Grid) int {
	_, s := MaxFree(gr)
	return s
}

// maxRect2D finds the maximum-area all-true rectangle in the scratch's
// colOK plane (dx*dy, wrap-aware in both dimensions). Rectangles
// spanning a full dimension are canonicalised to base 0.
func (s *mfpScratch) maxRect2D(dx, dy int, wrap bool) (area, bx, by, sx, sy int) {
	for x := 0; x < dx; x++ {
		row := x * dy
		computeRunsBool(s.colOK[row:row+dy], wrap, s.yRun[row:row+dy])
	}
	for by0 := 0; by0 < dy; by0++ {
		for sy0 := dy; sy0 >= 1; sy0-- {
			if dx*sy0 <= area {
				break
			}
			if wrap && sy0 == dy && by0 != 0 {
				continue
			}
			if !wrap && by0+sy0 > dy {
				continue
			}
			for x := 0; x < dx; x++ {
				s.rowOK[x] = s.yRun[x*dy+by0] >= sy0
			}
			computeRunsBool(s.rowOK[:dx], wrap, s.xRun)
			for x := 0; x < dx; x++ {
				r := s.xRun[x]
				if wrap && r == dx && x != 0 {
					continue
				}
				if a := r * sy0; a > area {
					area, bx, by, sx, sy = a, x, by0, r, sy0
				}
			}
		}
	}
	return
}
