package partition

import (
	"sync"

	"bgsched/internal/torus"
)

// ShapeFinder is the paper's Appendix 9 partition-finder: for a job of
// size s it enumerates only the divisor-triple shapes SHAPES(s), scans
// base locations in increasing (x, y, z) order, and rejects candidates
// early using run-length information built lazily, on an as-needed
// basis. On an empty torus the cost is O(M^3 * f(s)^3) where f(s) is
// the divisor count of s, versus O(M^9) naive and O(M^5) for POP.
// A query on a grid with fewer free nodes than s returns at once, and
// a BufferedFinder query allocates nothing once the reused scratch and
// the caller's buffer have grown.
type ShapeFinder struct {
	// Metrics, when non-nil, receives per-call search-cost telemetry.
	Metrics *Metrics
}

// Name implements Finder.
func (ShapeFinder) Name() string { return "shape" }

// shapeScratch holds the lazily built run-length tables and the shape
// list; reused because the scheduler queries the finder on every
// placement attempt.
type shapeScratch struct {
	runs    []int
	haveCol []bool
	shapes  []torus.Shape
}

// shapeScratches is the free list of shapeScratch, one per concurrent
// query at most. A sync.Pool would not do: it empties at garbage
// collection and, under the race detector, drops entries at random, so
// buffered queries would allocate.
var shapeScratches struct {
	mu   sync.Mutex
	free []*shapeScratch
}

// getShapeScratch takes a scratch off the free list, or makes one.
func getShapeScratch() *shapeScratch {
	shapeScratches.mu.Lock()
	defer shapeScratches.mu.Unlock()
	n := len(shapeScratches.free)
	if n == 0 {
		return new(shapeScratch)
	}
	sc := shapeScratches.free[n-1]
	shapeScratches.free = shapeScratches.free[:n-1]
	return sc
}

// putShapeScratch returns sc to the free list.
func putShapeScratch(sc *shapeScratch) {
	shapeScratches.mu.Lock()
	shapeScratches.free = append(shapeScratches.free, sc)
	shapeScratches.mu.Unlock()
}

// FreeOfSize implements Finder.
func (f ShapeFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	return f.FreeOfSizeInto(gr, size, nil)
}

// FreeOfSizeInto implements BufferedFinder: FreeOfSize appending into
// buf[:0], so a caller that reuses its buffer queries without
// allocating.
func (f ShapeFinder) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	sw := f.Metrics.startTimer()
	g := gr.Geometry()
	dims := g.Dims
	out := buf[:0]

	sc := getShapeScratch()
	defer putShapeScratch(sc)
	sc.shapes = g.AppendShapesOf(sc.shapes[:0], size)
	if len(sc.shapes) == 0 {
		f.Metrics.noShapes(sw)
		return out
	}
	if gr.FreeCount() < size { // fewer free nodes than requested: no candidate exists
		f.Metrics.observe(sw, 0, 0, 0)
		return out
	}
	bases, rejects := 0, 0

	plane := dims.X * dims.Y
	if cap(sc.runs) < g.N() {
		sc.runs = make([]int, g.N())
	}
	if cap(sc.haveCol) < plane {
		sc.haveCol = make([]bool, plane)
	}
	runs := sc.runs[:g.N()]
	haveCol := sc.haveCol[:plane]
	for i := range haveCol {
		haveCol[i] = false
	}

	// Lazily built z run lengths: column (x, y) is materialised only
	// when a candidate first touches it.
	colRuns := func(x, y int) []int {
		col := x*dims.Y + y
		base := col * dims.Z
		if !haveCol[col] {
			computeRunsInto(func(z int) bool { return gr.NodeFree(base + z) },
				dims.Z, g.Wrap, runs[base:base+dims.Z])
			haveCol[col] = true
		}
		return runs[base : base+dims.Z]
	}

	for _, shape := range sc.shapes {
		rx := baseRange(dims.X, shape.X, g.Wrap)
		ry := baseRange(dims.Y, shape.Y, g.Wrap)
		rz := baseRange(dims.Z, shape.Z, g.Wrap)
		for bx := 0; bx < rx; bx++ {
			for by := 0; by < ry; by++ {
			nextBase:
				for bz := 0; bz < rz; bz++ {
					bases++
					// Check the footprint column by column; the z run
					// length at bz answers "is the whole z-window free"
					// in O(1) per column.
					for dx := 0; dx < shape.X; dx++ {
						x := bx + dx
						if x >= dims.X {
							x -= dims.X
						}
						for dy := 0; dy < shape.Y; dy++ {
							y := by + dy
							if y >= dims.Y {
								y -= dims.Y
							}
							if colRuns(x, y)[bz] < shape.Z {
								// Early termination: the base dies on
								// the first short column, before the
								// rest of the footprint is touched.
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
	f.Metrics.observe(sw, len(out), bases, rejects)
	return out
}
