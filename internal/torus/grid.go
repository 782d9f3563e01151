package torus

import (
	"fmt"
	"math/bits"
)

// FreeOwner is the owner value of an unallocated node.
const FreeOwner int64 = 0

// Grid is the occupancy map of the machine: which job (by opaque int64
// owner id) holds each node. Owner ids must be non-zero.
//
// Alongside the raw owner array the grid maintains the exact free/busy
// pattern as a bitset, updated in O(1) per node on every allocate and
// release (so O(partition volume) per operation). It is the key of
// memos that must never answer for another state and, one z-column per
// word (ColumnBits), the input of the partition kernels.
//
// Grid is not safe for concurrent use; the simulator is single-threaded
// by design (a discrete-event loop), and experiment-level parallelism
// uses one Grid per simulation.
type Grid struct {
	geom      Geometry
	owner     []int64
	freeCount int

	busy []uint64 // busy bitset: bit id%64 of word id/64 set iff node id is allocated
}

// NewGrid returns an empty occupancy grid for the machine.
func NewGrid(g Geometry) *Grid {
	return &Grid{
		geom:      g,
		owner:     make([]int64, g.N()),
		freeCount: g.N(),
		busy:      make([]uint64, (g.N()+63)/64),
	}
}

// Geometry returns the machine geometry of the grid.
func (gr *Grid) Geometry() Geometry { return gr.geom }

// FreeCount returns the number of unallocated nodes.
func (gr *Grid) FreeCount() int { return gr.freeCount }

// NodeFree reports whether the node with the given dense id is free.
func (gr *Grid) NodeFree(id int) bool { return gr.owner[id] == FreeOwner }

// OwnerAt returns the owner of the node with the given dense id, or
// FreeOwner if the node is unallocated.
func (gr *Grid) OwnerAt(id int) int64 { return gr.owner[id] }

// Occupancy returns the grid's exact free/busy pattern as a bitset:
// bit id%64 of word id/64 is set iff node id is allocated (two words
// on the 4x4x8 machine). Unlike OccupancyHash it cannot collide, so
// memos compare it before answering. The slice is the grid's own
// storage, updated in place by later operations; callers must copy
// what they keep and must not modify it.
func (gr *Grid) Occupancy() []uint64 { return gr.busy }

// OccupancyHash returns a 64-bit hash of the grid's free/busy pattern
// (owner identities do not contribute): the XOR of a fixed per-node key
// over the busy nodes, so equal patterns hash equally on any grid of
// the same geometry. It is computed on each call, in O(busy nodes).
// Distinct patterns can share a hash, so it serves as a seed, never as
// proof that two states are equal.
func (gr *Grid) OccupancyHash() uint64 {
	var h uint64
	for w, word := range gr.busy {
		for ; word != 0; word &= word - 1 {
			h ^= nodeKey(w<<6 | bits.TrailingZeros64(word))
		}
	}
	return h
}

// ColumnBits returns the busy pattern of z-column col, the nodes
// col*Z .. col*Z+Z-1 (x = col/Y, y = col%Y): bit z is set iff node
// (x, y, z) is allocated. NewGeometry bounds Z by MaxDim = 64, so a
// column fits one word; it is read from at most two words of the
// Occupancy bitset.
func (gr *Grid) ColumnBits(col int) uint64 {
	return columnWord(gr.busy, col, gr.geom.Dims.Z)
}

// columnWord returns z-column col of a node bitset laid out like
// Occupancy, dz bits to a column.
func columnWord(set []uint64, col, dz int) uint64 {
	start := col * dz
	w, off := start>>6, start&63
	word := set[w] >> off
	if off+dz > 64 {
		word |= set[w+1] << (64 - off)
	}
	return word & (1<<dz - 1) // 1<<64 is 0: a 64-node column keeps every bit
}

// WindowMask returns the dim-bit word whose cyclic window
// [start, start+length) is set, for 0 <= start < dim and
// length <= dim <= 64: a partition's z-extent within a column word.
func WindowMask(dim, start, length int) uint64 {
	m := uint64(1)<<length - 1 // 1<<64 is 0, so length 64 sets every bit
	return (m<<start | m>>(dim-start)) & (1<<dim - 1)
}

// Footprint reads partition p one z-column word at a time: it returns
// k, the number of p's nodes whose bit is set in the node bitset set
// (laid out like Occupancy; a nil set counts none), and whether any
// node of p is allocated. p must be valid on the grid's geometry. It
// visits p.Shape.X*p.Shape.Y columns where ForEachNode visits every
// node; PartitionFree is the per-node reference for busy.
func (gr *Grid) Footprint(set []uint64, p Partition) (k int, busy bool) {
	d := gr.geom.Dims
	mask := WindowMask(d.Z, p.Base.Z, p.Shape.Z)
	var taken uint64
	for dx := 0; dx < p.Shape.X; dx++ {
		x := p.Base.X + dx
		if x >= d.X {
			x -= d.X
		}
		for dy := 0; dy < p.Shape.Y; dy++ {
			y := p.Base.Y + dy
			if y >= d.Y {
				y -= d.Y
			}
			col := x*d.Y + y
			taken |= columnWord(gr.busy, col, d.Z)
			if set != nil {
				k += bits.OnesCount64(columnWord(set, col, d.Z) & mask)
			}
		}
	}
	return k, taken&mask != 0
}

// nodeKey is the fixed Zobrist key of a node: a splitmix64 step over
// the dense id.
func nodeKey(id int) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// flip maintains the busy bitset for one node changing between free
// and busy.
func (gr *Grid) flip(id int) {
	gr.busy[id>>6] ^= 1 << (id & 63)
}

// PartitionFree reports whether every node of p is unallocated.
func (gr *Grid) PartitionFree(p Partition) bool {
	return gr.geom.ForEachNode(p, func(id int) bool {
		return gr.owner[id] == FreeOwner
	})
}

// Allocate assigns every node of p to owner. It fails if the partition
// is invalid, the owner id is FreeOwner, or any node is already taken
// (double-allocating a cell is an error, never a silent overwrite).
func (gr *Grid) Allocate(p Partition, owner int64) error {
	if owner == FreeOwner {
		return fmt.Errorf("torus: cannot allocate to the free owner id")
	}
	if !gr.geom.ValidPartition(p) {
		return fmt.Errorf("torus: allocate %v: %w", p, ErrBadPartition)
	}
	if !gr.PartitionFree(p) {
		return fmt.Errorf("torus: allocate %v for owner %d: partition not free", p, owner)
	}
	gr.geom.ForEachNode(p, func(id int) bool {
		gr.owner[id] = owner
		gr.flip(id)
		return true
	})
	gr.freeCount -= p.Size()
	return nil
}

// Release frees every node of p, verifying each is held by owner.
// Releasing with the free owner id is an error: it would "free" cells
// that are already free, silently corrupting the free count and the
// occupancy summaries (the double-free analogue of Allocate's
// not-free check).
func (gr *Grid) Release(p Partition, owner int64) error {
	if owner == FreeOwner {
		return fmt.Errorf("torus: release %v: cannot release the free owner id (double free)", p)
	}
	if !gr.geom.ValidPartition(p) {
		return fmt.Errorf("torus: release %v: %w", p, ErrBadPartition)
	}
	ok := gr.geom.ForEachNode(p, func(id int) bool {
		return gr.owner[id] == owner
	})
	if !ok {
		return fmt.Errorf("torus: release %v: partition not fully owned by %d", p, owner)
	}
	gr.geom.ForEachNode(p, func(id int) bool {
		gr.owner[id] = FreeOwner
		gr.flip(id)
		return true
	})
	gr.freeCount += p.Size()
	return nil
}

// Clone returns a deep copy of the grid. Schedulers use clones to evaluate hypothetical placements without
// disturbing machine state.
func (gr *Grid) Clone() *Grid {
	return &Grid{
		geom:      gr.geom,
		owner:     append([]int64(nil), gr.owner...),
		freeCount: gr.freeCount,
		busy:      append([]uint64(nil), gr.busy...),
	}
}

// CopyFrom overwrites the grid's contents with src's. It is the
// allocation-free counterpart of Clone for reusable scratch grids. The
// geometries must match.
func (gr *Grid) CopyFrom(src *Grid) error {
	if gr.geom != src.geom {
		return fmt.Errorf("torus: CopyFrom geometry mismatch: %s vs %s", gr.geom.Spec(), src.geom.Spec())
	}
	copy(gr.owner, src.owner)
	copy(gr.busy, src.busy)
	gr.freeCount = src.freeCount
	return nil
}

// Owners returns a copy of the raw owner array, one owner id per dense
// node id (FreeOwner for unallocated nodes). It is the grid's complete
// source-of-truth state: every incremental summary — free count and
// occupancy bitset — is derived from it, which is what makes
// NewGridFromOwners an exact restore.
func (gr *Grid) Owners() []int64 {
	return append([]int64(nil), gr.owner...)
}

// NewGridFromOwners reconstructs a grid of geometry g from a serialized
// owner array, rebuilding every incremental summary from scratch. The
// occupancy bitset, being a pure function of the free/busy pattern,
// comes out equal to the original's.
func NewGridFromOwners(g Geometry, owners []int64) (*Grid, error) {
	if len(owners) != g.N() {
		return nil, fmt.Errorf("torus: owner array has %d entries, geometry %s has %d nodes",
			len(owners), g.Spec(), g.N())
	}
	gr := NewGrid(g)
	for id, o := range owners {
		if o == FreeOwner {
			continue
		}
		gr.owner[id] = o
		gr.flip(id)
		gr.freeCount--
	}
	return gr, nil
}

// FreeMask returns a snapshot bitmap where true means the node is free.
func (gr *Grid) FreeMask() []bool {
	m := make([]bool, len(gr.owner))
	for i, o := range gr.owner {
		m[i] = o == FreeOwner
	}
	return m
}
