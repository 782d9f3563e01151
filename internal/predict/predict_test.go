package predict

import (
	"math"
	"math/rand"
	"testing"

	"bgsched/internal/failure"
)

func indexWith(events ...failure.Event) *failure.Index {
	tr := failure.Trace(events)
	tr.Sort()
	return failure.NewIndex(128, tr)
}

func TestBalancingPredictor(t *testing.T) {
	ix := indexWith(failure.Event{Time: 100, Node: 3})
	b := &Balancing{Index: ix, Confidence: 0.4}
	if got := b.NodeFailProb(3, 0, 200); got != 0.4 {
		t.Fatalf("failing node prob = %g, want confidence 0.4", got)
	}
	if got := b.NodeFailProb(3, 150, 300); got != 0 {
		t.Fatalf("window after failure: prob = %g, want 0", got)
	}
	if got := b.NodeFailProb(5, 0, 200); got != 0 {
		t.Fatalf("healthy node prob = %g, want 0", got)
	}
	if got := b.NodeFailProb(3, 0, 50); got != 0 {
		t.Fatalf("window before failure: prob = %g, want 0", got)
	}
}

func TestTieBreakExtremes(t *testing.T) {
	ix := indexWith(failure.Event{Time: 100, Node: 3})
	always := NewTieBreak(ix, 1.0, 1)
	never := NewTieBreak(ix, 0.0, 1)
	if !always.NodeWillFail(3, 0, 200) {
		t.Fatal("accuracy 1 must detect a real failure")
	}
	if never.NodeWillFail(3, 0, 200) {
		t.Fatal("accuracy 0 must never answer yes")
	}
	// No false positives at any accuracy.
	if always.NodeWillFail(4, 0, 200) {
		t.Fatal("false positive on healthy node")
	}
	if always.NodeWillFail(3, 150, 300) {
		t.Fatal("false positive outside window")
	}
}

func TestTieBreakPartition(t *testing.T) {
	ix := indexWith(failure.Event{Time: 100, Node: 3})
	tb := NewTieBreak(ix, 1.0, 1)
	if !tb.PartitionWillFail([]int{1, 2, 3}, 0, 200) {
		t.Fatal("partition containing failing node must be flagged")
	}
	if tb.PartitionWillFail([]int{1, 2, 4}, 0, 200) {
		t.Fatal("healthy partition flagged")
	}
	if tb.PartitionWillFail(nil, 0, 200) {
		t.Fatal("empty partition flagged")
	}
}

// TestTieBreakAccuracyRate: over many distinct failures, the detection
// rate must approximate the accuracy parameter.
func TestTieBreakAccuracyRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tr failure.Trace
	for i := 0; i < 4000; i++ {
		tr = append(tr, failure.Event{Time: float64(i)*10 + rng.Float64(), Node: i % 128})
	}
	tr.Sort()
	ix := failure.NewIndex(128, tr)
	for _, acc := range []float64{0.1, 0.5, 0.9} {
		tb := NewTieBreak(ix, acc, 77)
		hits := 0
		for i := 0; i < 4000; i++ {
			node := i % 128
			center := float64(i) * 10
			if tb.NodeWillFail(node, center-1, center+5) {
				hits++
			}
		}
		rate := float64(hits) / 4000
		if math.Abs(rate-acc) > 0.05 {
			t.Errorf("accuracy %g: detection rate %.3f, want within 0.05", acc, rate)
		}
	}
}

// TestTieBreakConsistency: the predictor must answer identical
// queries identically, and its answer for a given failure
// must not depend on query order.
func TestTieBreakConsistency(t *testing.T) {
	ix := indexWith(
		failure.Event{Time: 100, Node: 3},
		failure.Event{Time: 500, Node: 7},
	)
	tb := NewTieBreak(ix, 0.5, 9)
	first := tb.NodeWillFail(3, 0, 200)
	for i := 0; i < 20; i++ {
		tb.NodeWillFail(7, 0, 600) // interleave other queries
		if got := tb.NodeWillFail(3, 0, 200); got != first {
			t.Fatal("predictor changed its answer")
		}
	}
}

func TestPerfectAndNull(t *testing.T) {
	ix := indexWith(failure.Event{Time: 100, Node: 3})
	p := &Perfect{Index: ix}
	if p.NodeFailProb(3, 0, 200) != 1 || p.NodeFailProb(4, 0, 200) != 0 {
		t.Fatal("Perfect NodeFailProb wrong")
	}
	if !p.PartitionWillFail([]int{3}, 0, 200) || p.PartitionWillFail([]int{4}, 0, 200) {
		t.Fatal("Perfect PartitionWillFail wrong")
	}
	var n Null
	if n.NodeFailProb(3, 0, 200) != 0 || n.PartitionWillFail([]int{3}, 0, 200) {
		t.Fatal("Null predictor must see no failures")
	}
}

func TestCombineIndependent(t *testing.T) {
	if got := CombineIndependent(nil); got != 0 {
		t.Fatalf("empty combine = %g", got)
	}
	if got := CombineIndependent([]float64{0.5}); got != 0.5 {
		t.Fatalf("single combine = %g", got)
	}
	got := CombineIndependent([]float64{0.5, 0.5})
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("combine(0.5, 0.5) = %g, want 0.75", got)
	}
	if got := CombineIndependent([]float64{1, 0}); got != 1 {
		t.Fatalf("combine with certain failure = %g", got)
	}
}

func TestCombineMax(t *testing.T) {
	if got := CombineMax(nil); got != 0 {
		t.Fatalf("empty max = %g", got)
	}
	if got := CombineMax([]float64{0.2, 0.7, 0.3}); got != 0.7 {
		t.Fatalf("max = %g", got)
	}
}

// CombineIndependent always dominates CombineMax: the union bound of
// independent events is at least the largest single probability.
func TestCombineDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		probs := make([]float64, 1+rng.Intn(8))
		for i := range probs {
			probs[i] = rng.Float64()
		}
		ci, cm := CombineIndependent(probs), CombineMax(probs)
		if ci < cm-1e-12 {
			t.Fatalf("CombineIndependent(%v) = %g < CombineMax = %g", probs, ci, cm)
		}
		if ci < 0 || ci > 1 || cm < 0 || cm > 1 {
			t.Fatalf("combine out of [0,1]: %g, %g", ci, cm)
		}
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		u := hashUnit(i, float64(i)*3.7, 42)
		if u < 0 || u >= 1 {
			t.Fatalf("hashUnit out of range: %g", u)
		}
	}
	// Different seeds decorrelate.
	same := 0
	for i := 0; i < 1000; i++ {
		a := hashUnit(i, 100, 1) < 0.5
		b := hashUnit(i, 100, 2) < 0.5
		if a == b {
			same++
		}
	}
	if same > 600 || same < 400 {
		t.Fatalf("seeds correlate: %d/1000 agreements", same)
	}
}
