package oracle

import (
	"testing"

	"bgsched/internal/torus"
)

// fuzzGeoms are the machines the fuzzer replays on: small enough that
// the naive reference finder stays cheap per op, torus and mesh so the
// wraparound logic is under fire too, and 3x5x7, whose z-columns cross
// a word of the occupancy bitset (column 9 is bits 63-69), so the
// column-word kernels are too.
var fuzzGeoms = []torus.Geometry{
	torus.NewGeometry(3, 3, 4, true),
	torus.NewGeometry(3, 3, 4, false),
	torus.NewGeometry(3, 5, 7, true),
	torus.NewGeometry(3, 5, 7, false),
}

// maxFuzzOps caps the decoded sequence so a single input cannot stall
// the fuzzer (each query brute-forces the naive finder).
const maxFuzzOps = 64

// FuzzFinderEquivalence feeds byte-encoded op sequences through the
// differential oracle. Any input where the finders disagree — or where
// any finder returns an invalid, non-free, non-canonical or unsorted
// candidate — crashes the fuzz run with a replayable grid dump.
func FuzzFinderEquivalence(f *testing.F) {
	// Wraparound partitions: picks near the top of the range select
	// late candidates, whose windows wrap the torus edges.
	f.Add(EncodeOps([]Op{
		{Kind: OpAlloc, Size: 5, Pick: 250},
		{Kind: OpAlloc, Size: 11, Pick: 251},
		{Kind: OpQuery, Size: 5, Pick: 0},
		{Kind: OpFree, Size: 0, Pick: 252},
		{Kind: OpQuery, Size: 17, Pick: 0},
	}))
	// Full torus: one machine-sized allocation, then queries against a
	// machine with zero free nodes (size byte 35 clamps to N=36).
	f.Add(EncodeOps([]Op{
		{Kind: OpAlloc, Size: 35, Pick: 0},
		{Kind: OpQuery, Size: 0, Pick: 0},
		{Kind: OpQuery, Size: 35, Pick: 0},
		{Kind: OpFree, Size: 0, Pick: 0},
		{Kind: OpQuery, Size: 35, Pick: 0},
	}))
	// Single free cell: unit allocations to the brink, leaving exactly
	// one node free, then queries of every feasibility class.
	singleFree := make([]Op, 0, 35+3)
	for i := 0; i < 35; i++ {
		singleFree = append(singleFree, Op{Kind: OpAlloc, Size: 0, Pick: i})
	}
	singleFree = append(singleFree,
		Op{Kind: OpQuery, Size: 0, Pick: 0},
		Op{Kind: OpQuery, Size: 1, Pick: 0},
		Op{Kind: OpQuery, Size: 35, Pick: 0},
	)
	f.Add(EncodeOps(singleFree))
	// Churn: interleaved allocate/free/query with odd sizes.
	f.Add(EncodeOps([]Op{
		{Kind: OpAlloc, Size: 3, Pick: 1},
		{Kind: OpAlloc, Size: 8, Pick: 7},
		{Kind: OpFree, Size: 0, Pick: 0},
		{Kind: OpAlloc, Size: 23, Pick: 99},
		{Kind: OpQuery, Size: 29, Pick: 0},
		{Kind: OpFree, Size: 0, Pick: 1},
		{Kind: OpQuery, Size: 2, Pick: 0},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := DecodeOps(data)
		if len(ops) > maxFuzzOps {
			ops = ops[:maxFuzzOps]
		}
		for _, g := range fuzzGeoms {
			if _, err := Replay(g, ops, nil); err != nil {
				t.Fatalf("%s: %v", g.Spec(), err)
			}
		}
	})
}
