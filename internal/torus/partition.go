package torus

import "fmt"

// Partition is a contiguous rectangular block of nodes, identified by a
// base coordinate and an extent along each dimension. On a torus the
// block may wrap around any dimension.
type Partition struct {
	Base  Coord
	Shape Shape
}

// Size returns the number of nodes in the partition.
func (p Partition) Size() int { return p.Shape.Size() }

// String returns the partition as "base+shape".
func (p Partition) String() string {
	return fmt.Sprintf("%v+%v", p.Base, p.Shape)
}

// ForEachNode calls fn with the dense node id of every node in the
// partition, stopping early if fn returns false. It reports whether the
// iteration ran to completion.
func (g Geometry) ForEachNode(p Partition, fn func(id int) bool) bool {
	for dx := 0; dx < p.Shape.X; dx++ {
		x := p.Base.X + dx
		if x >= g.Dims.X {
			x -= g.Dims.X
		}
		for dy := 0; dy < p.Shape.Y; dy++ {
			y := p.Base.Y + dy
			if y >= g.Dims.Y {
				y -= g.Dims.Y
			}
			rowBase := (x*g.Dims.Y + y) * g.Dims.Z
			for dz := 0; dz < p.Shape.Z; dz++ {
				z := p.Base.Z + dz
				if z >= g.Dims.Z {
					z -= g.Dims.Z
				}
				if !fn(rowBase + z) {
					return false
				}
			}
		}
	}
	return true
}

// Nodes returns the dense ids of every node in the partition.
func (g Geometry) Nodes(p Partition) []int {
	return g.AppendNodes(make([]int, 0, p.Size()), p)
}

// AppendNodes appends the dense ids Nodes(p) returns, in the same
// order, to buf and returns the extended slice, so a caller that
// reuses its buffer lists a partition's nodes without allocating.
func (g Geometry) AppendNodes(buf []int, p Partition) []int {
	g.ForEachNode(p, func(id int) bool {
		buf = append(buf, id)
		return true
	})
	return buf
}

// ContainsNode reports whether the node with the given dense id lies
// inside partition p.
func (g Geometry) ContainsNode(p Partition, id int) bool {
	c := g.CoordOf(id)
	return inSpan(c.X, p.Base.X, p.Shape.X, g.Dims.X) &&
		inSpan(c.Y, p.Base.Y, p.Shape.Y, g.Dims.Y) &&
		inSpan(c.Z, p.Base.Z, p.Shape.Z, g.Dims.Z)
}

// inSpan reports whether coordinate v lies in the (possibly wrapping)
// interval [start, start+length) modulo dim.
func inSpan(v, start, length, dim int) bool {
	if length >= dim {
		return true
	}
	d := v - start
	if d < 0 {
		d += dim
	}
	return d < length
}

// spansOverlap reports whether two wrapping intervals
// [a, a+al) and [b, b+bl) modulo dim intersect.
func spansOverlap(a, al, b, bl, dim int) bool {
	if al >= dim || bl >= dim {
		return true
	}
	// They overlap iff either start lies within the other interval.
	return inSpan(b, a, al, dim) || inSpan(a, b, bl, dim)
}

// Overlaps reports whether partitions p and q share at least one node.
func (g Geometry) Overlaps(p, q Partition) bool {
	return spansOverlap(p.Base.X, p.Shape.X, q.Base.X, q.Shape.X, g.Dims.X) &&
		spansOverlap(p.Base.Y, p.Shape.Y, q.Base.Y, q.Shape.Y, g.Dims.Y) &&
		spansOverlap(p.Base.Z, p.Shape.Z, q.Base.Z, q.Shape.Z, g.Dims.Z)
}

// ShapesOf returns every shape <x,y,z> with x*y*z == size that fits in
// the machine, in deterministic lexicographic order. Orientations are
// distinct shapes (1x2x4 and 4x2x1 are both returned). This is the set
// SHAPES of the paper's Appendix 9.
func (g Geometry) ShapesOf(size int) []Shape {
	return g.AppendShapesOf(nil, size)
}

// AppendShapesOf appends the shapes ShapesOf(size) returns, in the same
// order, to buf and returns the extended slice. Finders pass a reused
// buffer so a query enumerates its shapes without allocating.
func (g Geometry) AppendShapesOf(buf []Shape, size int) []Shape {
	if size < 1 || size > g.N() {
		return buf
	}
	for x := 1; x <= g.Dims.X; x++ {
		if size%x != 0 {
			continue
		}
		rest := size / x
		for y := 1; y <= g.Dims.Y; y++ {
			if rest%y != 0 {
				continue
			}
			z := rest / y
			if z >= 1 && z <= g.Dims.Z {
				buf = append(buf, Shape{x, y, z})
			}
		}
	}
	return buf
}

// FeasibleSizes returns, in increasing order, every partition size that
// can be realised as a rectangular block on this machine.
func (g Geometry) FeasibleSizes() []int {
	seen := make(map[int]bool)
	for x := 1; x <= g.Dims.X; x++ {
		for y := 1; y <= g.Dims.Y; y++ {
			for z := 1; z <= g.Dims.Z; z++ {
				seen[x*y*z] = true
			}
		}
	}
	sizes := make([]int, 0, len(seen))
	for s := 1; s <= g.N(); s++ {
		if seen[s] {
			sizes = append(sizes, s)
		}
	}
	return sizes
}

// RoundUpFeasible returns the smallest feasible partition size >= want,
// or (0, false) if want exceeds the machine size. Job requests that
// cannot form a rectangular block (e.g. 11 nodes on a 4x4x8 torus) are
// rounded up to the next feasible size, as in earlier BG/L scheduling
// studies.
func (g Geometry) RoundUpFeasible(want int) (int, bool) {
	if want < 1 {
		want = 1
	}
	if want > g.N() {
		return 0, false
	}
	for s := want; s <= g.N(); s++ {
		if len(g.ShapesOf(s)) > 0 {
			return s, true
		}
	}
	return 0, false
}
