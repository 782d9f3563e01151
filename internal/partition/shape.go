package partition

import (
	"math/bits"
	"sync"

	"bgsched/internal/torus"
)

// ShapeFinder is the paper's Appendix 9 partition-finder: for a job of
// size s it enumerates only the divisor-triple shapes SHAPES(s) and
// scans base locations in increasing (x, y, z) order. Where the paper
// reads z run lengths column by column, this implementation ORs the
// busy words (torus.Grid.ColumnBits) of a base's x-y footprint and
// reads every free z-base of that footprint at once (windowBases). On
// an empty torus the cost is O(M^3 * f(s)^3) where f(s) is the divisor
// count of s, versus O(M^9) naive and O(M^5) for POP. A query on a
// grid with fewer free nodes than s returns at once, and a
// BufferedFinder query allocates nothing once the reused scratch and
// the caller's buffer have grown.
type ShapeFinder struct {
	// Metrics, when non-nil, receives per-call search-cost telemetry.
	Metrics *Metrics
}

// Name implements Finder.
func (ShapeFinder) Name() string { return "shape" }

// shapeScratch holds the shape list and the column words of one
// enumeration; reused because the scheduler queries a finder on every
// placement attempt.
type shapeScratch struct {
	shapes []torus.Shape
	cols   []uint64
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
	out := buf[:0]
	if gr.FreeCount() < size { // fewer free nodes than requested: no candidate exists
		f.Metrics.observe(sw, 0, 0, 0)
		return out
	}
	sc := getShapeScratch()
	defer putShapeScratch(sc)
	sc.shapes = gr.Geometry().AppendShapesOf(sc.shapes[:0], size)
	if len(sc.shapes) == 0 {
		f.Metrics.noShapes(sw)
		return out
	}
	out, bases, rejects := sc.appendFree(gr, out)
	f.Metrics.observe(sw, len(out), bases, rejects)
	return out
}

// appendFree appends every free partition of each shape in sc.shapes
// to out in (shape, base x, base y, base z) order — the canonical
// order without a sort, since AppendShapesOf lists shapes in (X, Y, Z)
// order — and returns it with the bases-scanned and early-reject
// tallies (every base of the range is scanned; every base not returned
// is rejected). The busy words of a base's footprint columns are OR-ed
// into one word, whose free z-bases come out of windowBases.
func (sc *shapeScratch) appendFree(gr *torus.Grid, out []torus.Partition) ([]torus.Partition, int, int) {
	g := gr.Geometry()
	dims := g.Dims
	sc.cols = sc.cols[:0]
	for col := 0; col < dims.X*dims.Y; col++ {
		sc.cols = append(sc.cols, gr.ColumnBits(col))
	}
	bases, rejects := 0, 0
	for _, shape := range sc.shapes {
		rx := baseRange(dims.X, shape.X, g.Wrap)
		ry := baseRange(dims.Y, shape.Y, g.Wrap)
		rz := baseRange(dims.Z, shape.Z, g.Wrap)
		for bx := 0; bx < rx; bx++ {
			for by := 0; by < ry; by++ {
				var busy uint64
				for dx := 0; dx < shape.X; dx++ {
					x := bx + dx
					if x >= dims.X {
						x -= dims.X
					}
					row := sc.cols[x*dims.Y : (x+1)*dims.Y]
					for dy := 0; dy < shape.Y; dy++ {
						y := by + dy
						if y >= dims.Y {
							y -= dims.Y
						}
						busy |= row[y]
					}
				}
				free := windowBases(busy, dims.Z, shape.Z, g.Wrap) & lowBits(rz)
				bases += rz
				rejects += rz - bits.OnesCount64(free)
				for ; free != 0; free &= free - 1 {
					out = append(out, torus.Partition{
						Base:  torus.Coord{X: bx, Y: by, Z: bits.TrailingZeros64(free)},
						Shape: shape,
					})
				}
			}
		}
	}
	return out, bases, rejects
}

// windowBases returns the window bases of a dz-bit busy word (a
// z-column, or a y-row of the MFP sweep): bit b is set iff no bit of
// busy lies in the window [b, b+sz), read cyclically on a torus and cut
// at the top edge on a mesh. Each shift-AND doubles the window length
// covered, so a window takes O(log sz) steps.
func windowBases(busy uint64, dz, sz int, wrap bool) uint64 {
	w := ^busy & lowBits(dz)
	for have := 1; have < sz; {
		s := min(have, sz-have)
		if wrap {
			w &= w>>s | w<<(dz-s) // rotate right by s within dz bits
		} else {
			w &= w >> s
		}
		have += s
	}
	return w
}

// lowBits returns the word with the low n bits set, for 0 <= n <= 64.
func lowBits(n int) uint64 {
	return 1<<n - 1 // 1<<64 is 0, so n = 64 sets every bit
}
