package oracle

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bgsched/internal/partition"
	"bgsched/internal/torus"
)

// TestOracleRandomizedSequences is the headline differential run: over
// a thousand randomized allocate/free/query sequences replayed against
// all finder algorithms at once, on small exhaustive geometries (where
// the naive reference is cheap enough to brute-force every query), on
// 3x5x7, whose 105 nodes span two bitset words and whose z-columns
// cross the word boundary (column 9 is bits 63-69), and on the real
// BG/L torus. Zero divergence tolerated.
func TestOracleRandomizedSequences(t *testing.T) {
	cases := []struct {
		geom torus.Geometry
		seqs int
		ops  int
	}{
		{torus.NewGeometry(3, 3, 4, true), 400, 30},
		{torus.NewGeometry(3, 3, 4, false), 300, 30},
		{torus.NewGeometry(3, 5, 7, true), 200, 30},
		{torus.NewGeometry(3, 5, 7, false), 200, 30},
		{torus.BlueGeneL(), 350, 25},
	}
	totalSeqs := 0
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_wrap=%v", tc.geom.Spec(), tc.geom.Wrap), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < tc.seqs; seed++ {
				if _, err := Run(Config{Geometry: tc.geom, Ops: tc.ops, Seed: int64(seed)}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
		totalSeqs += tc.seqs
	}
	if totalSeqs < 1000 {
		t.Fatalf("only %d sequences configured, the oracle suite must run at least 1000", totalSeqs)
	}
}

// TestOracleStressesAllocAndFree makes sure the random mix actually
// mutates state: a run that never allocates or frees would be a
// read-only smoke test wearing an oracle costume.
func TestOracleStressesAllocAndFree(t *testing.T) {
	rep, err := Run(Config{Geometry: torus.NewGeometry(3, 3, 4, true), Ops: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Allocs == 0 || rep.Frees == 0 {
		t.Fatalf("degenerate run: %d allocs, %d frees over %d ops", rep.Allocs, rep.Frees, rep.Ops)
	}
	if rep.Comparisons == 0 {
		t.Fatal("no finder comparisons performed")
	}
}

// evilFinder wraps a real finder and corrupts its output in a
// configurable way — the self-test proving the oracle actually detects
// each class of divergence instead of vacuously passing.
type evilFinder struct {
	inner   partition.Finder
	corrupt func([]torus.Partition) []torus.Partition
}

func (e evilFinder) Name() string { return "evil" }

func (e evilFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	return e.corrupt(e.inner.FreeOfSize(gr, size))
}

// TestOracleDetectsDivergence: for every corruption mode the replay
// must fail with a DivergenceError naming the evil finder and carrying
// a grid dump.
func TestOracleDetectsDivergence(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	modes := []struct {
		name    string
		corrupt func([]torus.Partition) []torus.Partition
	}{
		{"drops a candidate", func(ps []torus.Partition) []torus.Partition {
			if len(ps) > 0 {
				return ps[1:]
			}
			return ps
		}},
		{"reorders candidates", func(ps []torus.Partition) []torus.Partition {
			if len(ps) > 1 {
				ps = append([]torus.Partition(nil), ps...)
				ps[0], ps[len(ps)-1] = ps[len(ps)-1], ps[0]
			}
			return ps
		}},
		{"shifts a base off the free set", func(ps []torus.Partition) []torus.Partition {
			if len(ps) > 0 {
				ps = append([]torus.Partition(nil), ps...)
				ps[0].Base.X = (ps[0].Base.X + 1) % 3
			}
			return ps
		}},
		{"invents an out-of-range partition", func(ps []torus.Partition) []torus.Partition {
			return append(append([]torus.Partition(nil), ps...),
				torus.Partition{Base: torus.Coord{X: 99}, Shape: torus.Shape{X: 1, Y: 1, Z: 1}})
		}},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			finders := []partition.Finder{
				partition.NaiveFinder{},
				evilFinder{inner: partition.ShapeFinder{}, corrupt: m.corrupt},
			}
			var failed bool
			for seed := int64(0); seed < 20 && !failed; seed++ {
				_, err := Replay(g, RandomOps(g, 40, seed), finders)
				if err == nil {
					continue
				}
				failed = true
				var div *DivergenceError
				if !errors.As(err, &div) {
					t.Fatalf("want *DivergenceError, got %T: %v", err, err)
				}
				if div.Finder != "evil" && div.Finder != "naive" {
					t.Fatalf("divergence blamed on %q: %v", div.Finder, err)
				}
				if !strings.Contains(err.Error(), "machine") {
					t.Fatalf("divergence report is missing the grid dump:\n%v", err)
				}
			}
			if !failed {
				t.Fatal("oracle never noticed the corrupted finder")
			}
		})
	}
}

// TestOracleDetectsBrokenReference: corruption of the reference
// (index 0) must also surface, via per-candidate validation.
func TestOracleDetectsBrokenReference(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	finders := []partition.Finder{
		evilFinder{inner: partition.NaiveFinder{}, corrupt: func(ps []torus.Partition) []torus.Partition {
			if len(ps) > 1 {
				ps = append([]torus.Partition(nil), ps...)
				ps[0], ps[1] = ps[1], ps[0] // break sortedness
			}
			return ps
		}},
		partition.ShapeFinder{},
	}
	var sawError bool
	for seed := int64(0); seed < 20 && !sawError; seed++ {
		_, err := Replay(g, RandomOps(g, 40, seed), finders)
		sawError = err != nil
	}
	if !sawError {
		t.Fatal("oracle accepted an out-of-order reference result set")
	}
}

// TestReplayLiteralSequences exercises hand-built corner sequences:
// saturating the machine, fully draining it, and querying at both
// extremes.
func TestReplayLiteralSequences(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	n := g.N()
	var ops []Op
	// Fill the machine with unit allocations, query along the way...
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: OpAlloc, Size: 0, Pick: i})
		if i%6 == 0 {
			ops = append(ops, Op{Kind: OpQuery, Size: i % n, Pick: 0})
		}
	}
	// ...query the full machine, then drain it completely and query again.
	ops = append(ops, Op{Kind: OpQuery, Size: 0}, Op{Kind: OpQuery, Size: n - 1})
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: OpFree, Pick: i * 7})
	}
	ops = append(ops, Op{Kind: OpQuery, Size: n - 1})

	rep, err := Replay(g, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Allocs != n {
		t.Fatalf("saturation made %d allocations, want %d", rep.Allocs, n)
	}
	if rep.Frees != n {
		t.Fatalf("drain made %d frees, want %d", rep.Frees, n)
	}
}

// TestEncodeDecodeOpsRoundTrip pins the byte format the fuzz target
// feeds on.
func TestEncodeDecodeOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAlloc, Size: 7, Pick: 200},
		{Kind: OpFree, Size: 0, Pick: 3},
		{Kind: OpQuery, Size: 127, Pick: 0},
	}
	got := DecodeOps(EncodeOps(ops))
	if len(got) != len(ops) {
		t.Fatalf("round trip length %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d round-tripped to %v, want %v", i, got[i], ops[i])
		}
	}
	if got := DecodeOps([]byte{1, 2}); len(got) != 0 {
		t.Fatalf("trailing bytes decoded to %d ops, want 0", len(got))
	}
}

// TestDumpGridShape checks the failure-report dump renders every node
// exactly once with the expected markers.
func TestDumpGridShape(t *testing.T) {
	g := torus.NewGeometry(2, 3, 2, false)
	gr := torus.NewGrid(g)
	if err := gr.Allocate(torus.Partition{Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 1); err != nil {
		t.Fatal(err)
	}
	dump := DumpGrid(gr)
	if got := strings.Count(dump, "#"); got != 1 {
		t.Fatalf("dump shows %d busy nodes, want 1:\n%s", got, dump)
	}
	if got := strings.Count(dump, "."); got != g.N()-1 {
		t.Fatalf("dump shows %d free nodes, want %d:\n%s", got, g.N()-1, dump)
	}
	if !strings.Contains(dump, "z=1") {
		t.Fatalf("dump is missing z slices:\n%s", dump)
	}
}

// TestOracleSnapshotMidSequence pins the OpSnapshot semantics: a
// sequence that allocates, snapshots (owner-map round-trip plus grid
// swap), then keeps mutating and querying must replay divergence-free
// against every finder, across the identity change a restore implies.
func TestOracleSnapshotMidSequence(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	n := g.N()
	var ops []Op
	for i := 0; i < 8; i++ {
		ops = append(ops, Op{Kind: OpAlloc, Size: i % n, Pick: i})
	}
	ops = append(ops, Op{Kind: OpSnapshot, Size: 3})
	for i := 0; i < 6; i++ {
		ops = append(ops,
			Op{Kind: OpFree, Pick: i * 5},
			Op{Kind: OpQuery, Size: (i * 7) % n},
			Op{Kind: OpSnapshot, Size: i % n},
			Op{Kind: OpAlloc, Size: (i * 3) % n, Pick: i},
		)
	}
	rep, err := Replay(g, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshots != 7 {
		t.Fatalf("replayed %d snapshots, want 7", rep.Snapshots)
	}
	if rep.Allocs == 0 || rep.Frees == 0 {
		t.Fatalf("degenerate sequence: %d allocs, %d frees", rep.Allocs, rep.Frees)
	}
}

// TestOracleRandomMixIncludesSnapshots keeps RandomOps honest about the
// new op: across a handful of seeds the generated mix must exercise
// snapshot round-trips, not just claim to.
func TestOracleRandomMixIncludesSnapshots(t *testing.T) {
	total := 0
	for seed := int64(0); seed < 10; seed++ {
		rep, err := Run(Config{Geometry: torus.NewGeometry(3, 3, 4, true), Ops: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		total += rep.Snapshots
	}
	if total == 0 {
		t.Fatal("1000 random ops produced zero snapshot round-trips")
	}
}

// TestOracleSnapshotDetectsStaleCache proves the snapshot op actually
// catches the failure class it exists for: a finder that caches by grid
// identity and keeps serving the pre-swap snapshot's results diverges.
func TestOracleSnapshotDetectsStaleCache(t *testing.T) {
	g := torus.NewGeometry(3, 3, 4, true)
	stale := &staleCacheFinder{inner: partition.ShapeFinder{}}
	finders := []partition.Finder{partition.NaiveFinder{}, stale}
	ops := []Op{
		{Kind: OpAlloc, Size: 3, Pick: 0},
		{Kind: OpQuery, Size: 3}, // primes the stale cache
		{Kind: OpSnapshot, Size: 3},
		{Kind: OpAlloc, Size: 3, Pick: 1}, // occupancy changed; cache still answers
		{Kind: OpQuery, Size: 3},
	}
	_, err := Replay(g, ops, finders)
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("stale-cache finder survived the snapshot replay: %v", err)
	}
	if div.Finder != "stale-cache" {
		t.Fatalf("divergence blamed on %q, want stale-cache", div.Finder)
	}
}

// staleCacheFinder memoizes its first answer per size and never
// invalidates — the bug OpSnapshot is designed to flush out.
type staleCacheFinder struct {
	inner partition.Finder
	memo  map[int][]torus.Partition
}

func (f *staleCacheFinder) Name() string { return "stale-cache" }

func (f *staleCacheFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	if f.memo == nil {
		f.memo = make(map[int][]torus.Partition)
	}
	if ps, ok := f.memo[size]; ok {
		return ps
	}
	ps := f.inner.FreeOfSize(gr, size)
	f.memo[size] = ps
	return ps
}
