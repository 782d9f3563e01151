package torus

import (
	"fmt"
	"sync/atomic"
)

// FreeOwner is the owner value of an unallocated node.
const FreeOwner int64 = 0

// gridIDs hands out process-unique grid identities; see Grid.ID.
var gridIDs atomic.Uint64

// Grid is the occupancy map of the machine: which job (by opaque int64
// owner id) holds each node. Owner ids must be non-zero.
//
// Alongside the raw owner array the grid maintains incremental
// occupancy summaries, updated in O(1) per node on every allocate and
// release (so O(partition volume) per operation):
//
//   - the exact free/busy pattern as a bitset, the key of memos that
//     must never answer for another state;
//   - a Zobrist-style occupancy hash of the free/busy pattern, which
//     caching partition finders use as a slot index (an allocate
//     followed by the matching release restores it);
//   - per-z-column busy counts (the projection of the occupancy onto
//     the x-y plane);
//   - per-axis plane busy counts (the projection onto each axis).
//
// Grid is not safe for concurrent use; the simulator is single-threaded
// by design (a discrete-event loop), and experiment-level parallelism
// uses one Grid per simulation.
type Grid struct {
	geom      Geometry
	owner     []int64
	freeCount int

	id        uint64   // process-unique identity, fresh per NewGrid/Clone
	busy      []uint64 // busy bitset: bit id%64 of word id/64 set iff node id is allocated
	hash      uint64   // occupancy hash of the free/busy pattern
	colBusy   []int    // busy nodes per z-column (len X*Y)
	planeBusy [3][]int // busy nodes per plane orthogonal to x, y, z

	watchers []colWatcher // column-invalidation callbacks, in handle order
	nextW    int          // next watcher handle
}

// colWatcher is one registered column-invalidation callback.
type colWatcher struct {
	h  int
	fn func(col int)
}

// NewGrid returns an empty occupancy grid for the machine.
func NewGrid(g Geometry) *Grid {
	return &Grid{
		geom:      g,
		owner:     make([]int64, g.N()),
		freeCount: g.N(),
		id:        gridIDs.Add(1),
		busy:      make([]uint64, (g.N()+63)/64),
		colBusy:   make([]int, g.Dims.X*g.Dims.Y),
		planeBusy: [3][]int{
			make([]int, g.Dims.X),
			make([]int, g.Dims.Y),
			make([]int, g.Dims.Z),
		},
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

// ID returns the grid's process-unique identity. Every NewGrid and
// Clone gets a fresh id, so caches keyed by it can never confuse two
// grids (unlike pointer keys, which the allocator may reuse).
func (gr *Grid) ID() uint64 { return gr.id }

// Occupancy returns the grid's exact free/busy pattern as a bitset:
// bit id%64 of word id/64 is set iff node id is allocated (two words
// on the 4x4x8 machine). Unlike OccupancyHash it cannot collide, so
// memos compare it before answering. The slice is the grid's own
// storage, updated in place by later operations; callers must copy
// what they keep and must not modify it.
func (gr *Grid) Occupancy() []uint64 { return gr.busy }

// OccupancyHash returns a 64-bit hash of the grid's free/busy pattern
// (owner identities do not contribute). It is maintained incrementally:
// flipping a node XORs a fixed per-node key, so any sequence of
// operations that restores the occupancy pattern restores the hash.
// Distinct patterns can share a hash, so it serves as a slot index,
// never as proof that two states are equal.
func (gr *Grid) OccupancyHash() uint64 { return gr.hash }

// ColumnBusy returns the number of allocated nodes in z-column col:
// the occupancy projected onto the x-y plane.
func (gr *Grid) ColumnBusy(col int) int { return gr.colBusy[col] }

// PlaneBusy returns the number of allocated nodes in the k-th plane
// orthogonal to the given axis (0 = x, 1 = y, 2 = z): the occupancy
// projected onto that axis.
func (gr *Grid) PlaneBusy(axis, k int) int { return gr.planeBusy[axis][k] }

// AddColumnWatcher registers a callback invoked whenever the occupancy
// of a z-column changes (once per node flip, so a watcher typically
// dedupes). Caching finders use it to mark derived per-column state
// dirty instead of re-scanning every column on each query. The
// returned handle removes the watcher via RemoveColumnWatcher. Watchers
// are not copied by Clone: derived state is attached to one grid
// identity.
func (gr *Grid) AddColumnWatcher(fn func(col int)) int {
	h := gr.nextW
	gr.nextW++
	gr.watchers = append(gr.watchers, colWatcher{h: h, fn: fn})
	return h
}

// RemoveColumnWatcher unregisters a watcher by the handle
// AddColumnWatcher returned. Unknown handles are ignored.
func (gr *Grid) RemoveColumnWatcher(h int) {
	for i, w := range gr.watchers {
		if w.h == h {
			gr.watchers = append(gr.watchers[:i], gr.watchers[i+1:]...)
			return
		}
	}
}

// notifyCol fires the column watchers for one changed column.
func (gr *Grid) notifyCol(col int) {
	for _, w := range gr.watchers {
		w.fn(col)
	}
}

// nodeKey is the fixed Zobrist key of a node: a splitmix64 step over
// the dense id. Deterministic across grids so equal occupancy patterns
// hash equally on any grid of the same geometry.
func nodeKey(id int) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// flip maintains the incremental summaries for one node changing
// between free and busy; delta is +1 when the node becomes busy and
// -1 when it becomes free.
func (gr *Grid) flip(id, delta int) {
	k := nodeKey(id)
	col := id / gr.geom.Dims.Z
	gr.busy[id>>6] ^= 1 << (id & 63)
	gr.hash ^= k
	gr.colBusy[col] += delta
	gr.planeBusy[0][col/gr.geom.Dims.Y] += delta
	gr.planeBusy[1][col%gr.geom.Dims.Y] += delta
	gr.planeBusy[2][id%gr.geom.Dims.Z] += delta
	if len(gr.watchers) > 0 {
		gr.notifyCol(col)
	}
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
		gr.flip(id, +1)
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
		gr.flip(id, -1)
		return true
	})
	gr.freeCount += p.Size()
	return nil
}

// Clone returns a deep copy of the grid under a fresh identity.
// Schedulers use clones to evaluate hypothetical placements without
// disturbing machine state.
func (gr *Grid) Clone() *Grid {
	cp := &Grid{
		geom:      gr.geom,
		owner:     append([]int64(nil), gr.owner...),
		freeCount: gr.freeCount,
		id:        gridIDs.Add(1),
		busy:      append([]uint64(nil), gr.busy...),
		hash:      gr.hash,
		colBusy:   append([]int(nil), gr.colBusy...),
	}
	for a := range gr.planeBusy {
		cp.planeBusy[a] = append([]int(nil), gr.planeBusy[a]...)
	}
	return cp
}

// CopyFrom overwrites the grid's contents with src's, keeping the
// receiver's identity and watchers. It is the allocation-free
// counterpart of Clone for reusable scratch grids: a stable identity
// lets caching finders keep one derived state for the scratch instead
// of rebuilding per clone. Column watchers fire once per node whose
// occupancy differs between the old and new contents, exactly as
// individual flips would fire them. The geometries must match.
func (gr *Grid) CopyFrom(src *Grid) error {
	if gr.geom != src.geom {
		return fmt.Errorf("torus: CopyFrom geometry mismatch: %s vs %s", gr.geom.Spec(), src.geom.Spec())
	}
	if len(gr.watchers) > 0 {
		for id, o := range src.owner {
			if (o == FreeOwner) != (gr.owner[id] == FreeOwner) {
				gr.notifyCol(id / gr.geom.Dims.Z)
			}
		}
	}
	copy(gr.owner, src.owner)
	copy(gr.busy, src.busy)
	gr.freeCount = src.freeCount
	gr.hash = src.hash
	copy(gr.colBusy, src.colBusy)
	for a := range gr.planeBusy {
		copy(gr.planeBusy[a], src.planeBusy[a])
	}
	return nil
}

// Owners returns a copy of the raw owner array, one owner id per dense
// node id (FreeOwner for unallocated nodes). It is the grid's complete
// source-of-truth state: every incremental summary — free count,
// occupancy bitset and hash, projections — is derived from it,
// which is what makes NewGridFromOwners an exact restore.
func (gr *Grid) Owners() []int64 {
	return append([]int64(nil), gr.owner...)
}

// NewGridFromOwners reconstructs a grid of geometry g from a serialized
// owner array, rebuilding every incremental summary from scratch. The
// result carries a fresh grid identity, so finder caches keyed by grid
// id can never serve state from the pre-snapshot grid; the occupancy
// bitset and hash, being pure functions of the free/busy pattern, come
// out equal to the original's.
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
		gr.flip(id, +1)
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
