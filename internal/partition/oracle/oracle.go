// Package oracle is the differential-testing harness for the
// free-partition finders: it replays allocate/free/query operation
// sequences against every finder algorithm simultaneously — naive
// exhaustive, POP projection, shape enumeration and the annealing
// finder — and fails on any divergence in feasibility (one algorithm
// finds candidates another does not), candidate sets, per-candidate
// validity (rectangular, fully free, exactly the requested size), the
// maximal-free-partition size, or the MFP cache's probe of a placement.
//
// The paper's finders are pure functions of the occupancy grid, which
// makes exact differential testing possible: FreEPARTS is a defined
// set, so any two correct algorithms must return identical, sorted,
// canonicalised slices. The oracle is what lets the optimized shape
// enumeration ship with proof it never diverges from the O(M^9)
// reference.
//
// Operations are plain values, so sequences come from three sources:
// RandomOps (seeded generators for the randomized regression suite),
// DecodeOps (byte strings, for the native fuzz target), and literal
// slices (regression cases distilled from failures).
package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"bgsched/internal/partition"
	"bgsched/internal/torus"
)

// OpKind is the operation discriminator.
type OpKind uint8

const (
	// OpAlloc queries all finders for Size, verifies agreement, then
	// allocates the candidate selected by Pick (no-op when none fit).
	OpAlloc OpKind = iota
	// OpFree releases the live allocation selected by Pick (no-op when
	// nothing is allocated).
	OpFree
	// OpQuery queries all finders for Size and verifies agreement plus
	// the MFP invariants, mutating nothing.
	OpQuery
	// OpSnapshot round-trips the occupancy grid through its serialized
	// owner map (the same mechanism simulator snapshot restore uses) and
	// swaps the live grid for the restored copy, then re-verifies finder
	// agreement on it. The restored grid is a new Grid with the same
	// occupancy, so finder state tied to the old grid object that
	// survived the swap — stale state a restore must never inherit —
	// diverges here.
	OpSnapshot
	opKinds // count sentinel
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	case OpQuery:
		return "query"
	case OpSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one replayable operation. Out-of-range values are reduced
// modulo the legal range during replay, so every byte string and every
// random draw is a valid sequence (crucial for fuzzing: the whole
// input space is reachable states, not parse errors).
type Op struct {
	Kind OpKind
	Size int // alloc/query: requested partition size
	Pick int // alloc: candidate index; free: live-allocation index
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o.Kind {
	case OpFree:
		return fmt.Sprintf("free(pick=%d)", o.Pick)
	default:
		return fmt.Sprintf("%v(size=%d, pick=%d)", o.Kind, o.Size, o.Pick)
	}
}

// DefaultFinders returns the full algorithm set under test: the three
// scan finders and the annealing finder.
func DefaultFinders() []partition.Finder {
	return []partition.Finder{
		partition.NaiveFinder{},
		partition.POPFinder{},
		partition.ShapeFinder{},
		// The annealing finder delegates enumeration to an embedded shape
		// finder; riding in the oracle set proves its candidate sets stay
		// byte-identical (including across the OpSnapshot identity swap)
		// — only its placement preference differs, and that is outside
		// FreeOfSize.
		partition.NewAnnealFinder(1),
	}
}

// Report tallies one replay.
type Report struct {
	Ops         int // operations executed
	Allocs      int // successful allocations
	Frees       int // successful releases
	Queries     int // finder comparisons performed (queries + alloc lookups)
	Comparisons int // pairwise finder result comparisons
	Snapshots   int // grid snapshot/restore round-trips
}

// DivergenceError describes a detected finder disagreement or
// invariant violation, with enough state to reproduce it: the op
// index, the offending finder, and the exact occupancy grid.
type DivergenceError struct {
	OpIndex int
	Op      Op
	Size    int    // effective (clamped) query size
	Finder  string // algorithm that diverged or misbehaved
	Detail  string
	Grid    string // DumpGrid of the machine state at failure
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("oracle: op %d %v (size %d): finder %s: %s\n%s",
		e.OpIndex, e.Op, e.Size, e.Finder, e.Detail, e.Grid)
}

// DumpGrid renders the occupancy as one x-row by y-column block per
// z-slice ('.' free, '#' busy), the shape divergence reports embed.
func DumpGrid(gr *torus.Grid) string {
	g := gr.Geometry()
	dims := g.Dims
	var b strings.Builder
	fmt.Fprintf(&b, "machine %s, %d/%d free\n", g.Spec(), gr.FreeCount(), g.N())
	for z := 0; z < dims.Z; z++ {
		fmt.Fprintf(&b, "z=%d\n", z)
		for x := 0; x < dims.X; x++ {
			for y := 0; y < dims.Y; y++ {
				if gr.NodeFree(g.Index(torus.Coord{X: x, Y: y, Z: z})) {
					b.WriteByte('.')
				} else {
					b.WriteByte('#')
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// liveAlloc is one allocation the replay can later free.
type liveAlloc struct {
	part  torus.Partition
	owner int64
}

// Replay executes ops on a fresh grid of geometry g, checking every
// query against every finder. It returns the replay tallies and the
// first divergence (nil error means all finders agreed everywhere).
// Finders defaults to DefaultFinders when nil; the first entry is the
// reference the others are compared against, so keep the naive finder
// first for a trustworthy oracle.
func Replay(g torus.Geometry, ops []Op, finders []partition.Finder) (*Report, error) {
	if len(finders) == 0 {
		finders = DefaultFinders()
	}
	gr := torus.NewGrid(g)
	mfp := partition.NewMFPCache() // one memo across the whole replay
	rep := &Report{}
	var live []liveAlloc
	nextOwner := int64(1)

	for i, op := range ops {
		rep.Ops++
		switch op.Kind % opKinds {
		case OpQuery:
			size := clampSize(op.Size, g)
			if _, err := checkQuery(rep, gr, mfp, size, finders, i, op); err != nil {
				return rep, err
			}
			if err := checkMFP(gr, i, op); err != nil {
				return rep, err
			}
		case OpAlloc:
			size := clampSize(op.Size, g)
			cands, err := checkQuery(rep, gr, mfp, size, finders, i, op)
			if err != nil {
				return rep, err
			}
			if len(cands) == 0 {
				continue // infeasible now; legal no-op
			}
			p := cands[mod(op.Pick, len(cands))]
			if err := gr.Allocate(p, nextOwner); err != nil {
				return rep, &DivergenceError{
					OpIndex: i, Op: op, Size: size, Finder: finders[0].Name(),
					Detail: fmt.Sprintf("returned unallocatable candidate %v: %v", p, err),
					Grid:   DumpGrid(gr),
				}
			}
			live = append(live, liveAlloc{part: p, owner: nextOwner})
			nextOwner++
			rep.Allocs++
		case OpSnapshot:
			owners := gr.Owners()
			restored, err := torus.NewGridFromOwners(g, owners)
			if err != nil {
				return rep, &DivergenceError{
					OpIndex: i, Op: op, Finder: "snapshot",
					Detail: fmt.Sprintf("owner round-trip rejected a live grid: %v", err),
					Grid:   DumpGrid(gr),
				}
			}
			if restored.FreeCount() != gr.FreeCount() {
				return rep, &DivergenceError{
					OpIndex: i, Op: op, Finder: "snapshot",
					Detail: fmt.Sprintf("restored grid has %d free nodes, original %d",
						restored.FreeCount(), gr.FreeCount()),
					Grid: DumpGrid(gr),
				}
			}
			gr = restored
			rep.Snapshots++
			// Every finder must agree on the restored grid exactly as it
			// did on the original.
			size := clampSize(op.Size, g)
			if _, err := checkQuery(rep, gr, mfp, size, finders, i, op); err != nil {
				return rep, err
			}
			if err := checkMFP(gr, i, op); err != nil {
				return rep, err
			}
		case OpFree:
			if len(live) == 0 {
				continue // nothing allocated; legal no-op
			}
			idx := mod(op.Pick, len(live))
			a := live[idx]
			if err := gr.Release(a.part, a.owner); err != nil {
				return rep, &DivergenceError{
					OpIndex: i, Op: op, Finder: "grid",
					Detail: fmt.Sprintf("release of live allocation %v failed: %v", a.part, err),
					Grid:   DumpGrid(gr),
				}
			}
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
			rep.Frees++
		}
	}
	return rep, nil
}

// probeSample bounds the reference candidates per query whose MFP
// probe checkQuery compares with the brute-force oracle.
const probeSample = 2

// checkQuery runs every finder for size, validates each candidate of
// each finder, verifies all result sets are identical to the reference
// (finders[0]), and compares mfp's probe of up to probeSample evenly
// spaced reference candidates with the brute-force MFP of the grid with
// that candidate allocated. Returns the reference candidates.
func checkQuery(rep *Report, gr *torus.Grid, mfp *partition.MFPCache, size int, finders []partition.Finder, opIndex int, op Op) ([]torus.Partition, error) {
	rep.Queries++
	g := gr.Geometry()
	ref := finders[0].FreeOfSize(gr, size)
	if err := validateSet(g, gr, ref, size, finders[0].Name(), opIndex, op); err != nil {
		return nil, err
	}
	for _, f := range finders[1:] {
		rep.Comparisons++
		got := f.FreeOfSize(gr, size)
		if err := validateSet(g, gr, got, size, f.Name(), opIndex, op); err != nil {
			return nil, err
		}
		if len(got) != len(ref) {
			return nil, &DivergenceError{
				OpIndex: opIndex, Op: op, Size: size, Finder: f.Name(),
				Detail: fmt.Sprintf("found %d candidates, reference %s found %d",
					len(got), finders[0].Name(), len(ref)),
				Grid: DumpGrid(gr),
			}
		}
		for j := range got {
			if got[j] != ref[j] {
				return nil, &DivergenceError{
					OpIndex: opIndex, Op: op, Size: size, Finder: f.Name(),
					Detail: fmt.Sprintf("candidate %d is %v, reference %s has %v",
						j, got[j], finders[0].Name(), ref[j]),
					Grid: DumpGrid(gr),
				}
			}
		}
	}
	for i := 0; i < len(ref); i += (len(ref) + probeSample - 1) / probeSample {
		part, got := mfp.MaxFreeProbe(gr, ref[i])
		after := gr.Clone()
		if err := after.Allocate(ref[i], -1); err != nil {
			return nil, err
		}
		if detail := naiveMismatch(after, part, got); detail != "" {
			return nil, &DivergenceError{
				OpIndex: opIndex, Op: op, Size: size, Finder: "mfp-probe",
				Detail: fmt.Sprintf("probe of %v: %s", ref[i], detail), Grid: DumpGrid(gr),
			}
		}
	}
	return ref, nil
}

// validateSet checks the per-candidate invariants every finder must
// uphold: legal rectangular partition (wraparound included), exactly
// the requested size, fully free, canonical bases on full-span
// dimensions, and strictly sorted output (which also forbids
// duplicates).
func validateSet(g torus.Geometry, gr *torus.Grid, ps []torus.Partition, size int, finder string, opIndex int, op Op) error {
	fail := func(detail string) error {
		return &DivergenceError{
			OpIndex: opIndex, Op: op, Size: size, Finder: finder,
			Detail: detail, Grid: DumpGrid(gr),
		}
	}
	for j, p := range ps {
		if !g.ValidPartition(p) {
			return fail(fmt.Sprintf("candidate %d (%v) is not a valid partition", j, p))
		}
		if p.Size() != size {
			return fail(fmt.Sprintf("candidate %d (%v) has size %d, want %d", j, p, p.Size(), size))
		}
		if !gr.PartitionFree(p) {
			return fail(fmt.Sprintf("candidate %d (%v) is not fully free", j, p))
		}
		if (p.Shape.X == g.Dims.X && p.Base.X != 0) ||
			(p.Shape.Y == g.Dims.Y && p.Base.Y != 0) ||
			(p.Shape.Z == g.Dims.Z && p.Base.Z != 0) {
			return fail(fmt.Sprintf("candidate %d (%v) is not canonicalised", j, p))
		}
		if j > 0 && !partitionLess(ps[j-1], p) {
			return fail(fmt.Sprintf("candidates %d..%d out of order or duplicated (%v then %v)",
				j-1, j, ps[j-1], p))
		}
	}
	return nil
}

// checkMFP cross-checks the incremental MaxFree against the brute-
// force oracle.
func checkMFP(gr *torus.Grid, opIndex int, op Op) error {
	part, got := partition.MaxFree(gr)
	if detail := naiveMismatch(gr, part, got); detail != "" {
		return &DivergenceError{
			OpIndex: opIndex, Op: op, Finder: "maxfree",
			Detail: "MaxFree " + detail, Grid: DumpGrid(gr),
		}
	}
	return nil
}

// naiveMismatch describes how an MFP answer for gr departs from the
// brute-force oracle — a different size, or a reported partition that
// is not valid, free and of the reported size (whenever the machine is
// not full) — or returns "" when it agrees.
func naiveMismatch(gr *torus.Grid, part torus.Partition, got int) string {
	if _, want := partition.MaxFreeNaive(gr); got != want {
		return fmt.Sprintf("size %d, naive oracle %d", got, want)
	}
	if got > 0 && !(gr.Geometry().ValidPartition(part) && part.Size() == got && gr.PartitionFree(part)) {
		return fmt.Sprintf("partition %v invalid for reported size %d", part, got)
	}
	return ""
}

// partitionLess is the finders' output order: shape-major, then base.
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

// clampSize reduces any integer into the legal request range [1, N].
func clampSize(size int, g torus.Geometry) int {
	return mod(size, g.N()) + 1
}

// mod is a non-negative modulo for pick/size reduction.
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// RandomOps generates a seeded operation sequence of length n:
// roughly 40% allocations, 25% frees, 30% queries and 5% snapshot
// round-trips, with sizes drawn
// from the machine's feasible sizes (biased small, the way real job
// streams are) and occasional arbitrary sizes to exercise the
// no-legal-shape exits.
func RandomOps(g torus.Geometry, n int, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	feasible := g.FeasibleSizes()
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var op Op
		switch r := rng.Float64(); {
		case r < 0.40:
			op.Kind = OpAlloc
		case r < 0.65:
			op.Kind = OpFree
		case r < 0.95:
			op.Kind = OpQuery
		default:
			op.Kind = OpSnapshot
		}
		if op.Kind != OpFree {
			if rng.Float64() < 0.85 {
				// Feasible, biased to the small sizes that dominate job
				// logs (squaring the uniform draw skews low).
				u := rng.Float64()
				op.Size = feasible[int(u*u*float64(len(feasible)))] - 1 // -1: clampSize adds 1 back
			} else {
				op.Size = rng.Intn(g.N()) // arbitrary, may have no shape
			}
		}
		op.Pick = rng.Intn(1 << 16)
		ops = append(ops, op)
	}
	return ops
}

// Config describes one randomized oracle run.
type Config struct {
	// Geometry of the machine; zero value means the BG/L 4x4x8 torus.
	Geometry torus.Geometry
	// Ops per sequence (default 32).
	Ops int
	// Seed drives the op generator.
	Seed int64
	// Finders under test; nil means DefaultFinders.
	Finders []partition.Finder
}

// Run generates a random op sequence from cfg and replays it.
func Run(cfg Config) (*Report, error) {
	g := cfg.Geometry
	if g.N() == 0 {
		g = torus.BlueGeneL()
	}
	n := cfg.Ops
	if n <= 0 {
		n = 32
	}
	return Replay(g, RandomOps(g, n, cfg.Seed), cfg.Finders)
}

// DecodeOps turns a byte string into an op sequence, three bytes per
// op (kind, size, pick); trailing bytes are dropped. Every byte string
// decodes to a valid sequence.
func DecodeOps(data []byte) []Op {
	ops := make([]Op, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		ops = append(ops, Op{
			Kind: OpKind(data[i]) % opKinds,
			Size: int(data[i+1]),
			Pick: int(data[i+2]),
		})
	}
	return ops
}

// EncodeOps is the inverse of DecodeOps, used to build fuzz seed
// corpora from literal sequences.
func EncodeOps(ops []Op) []byte {
	data := make([]byte, 0, len(ops)*3)
	for _, op := range ops {
		data = append(data, byte(op.Kind), byte(op.Size), byte(op.Pick))
	}
	return data
}
