// Package predict implements the paper's fault-prediction mechanisms
// (Section 4). As in the paper, predictors are not statistical models:
// they answer queries by consulting the failure log itself, degraded by
// a tunable confidence (balancing predictor) or accuracy / false-
// negative rate (tie-breaking predictor). This isolates the scheduling
// question — "how good must a predictor be to help?" — from any
// particular prediction algorithm.
//
// Besides the per-node interfaces, the knob predictors answer for
// every node at once, as a node bitset laid out like
// torus.Grid.Occupancy: bit n%64 of word n/64 stands for node n, and
// a set holds at least (nodes+63)/64 words. A balancing answer takes
// two values, a for the nodes of the set and 0 for every other node
// (FailSet); a tie-breaking answer is the set of nodes answered yes
// (WillFailSet). The placement policies score candidates from these
// sets, and ask any other predictor node by node.
package predict

import (
	"math/bits"

	"bgsched/internal/failure"
)

// NodeProber is the balancing-predictor interface: the estimated
// probability that a node fails in the window (now, until].
type NodeProber interface {
	NodeFailProb(node int, now, until float64) float64
}

// PartitionOracle is the tie-breaking-predictor interface: a boolean
// answer to "will any node of this partition fail in (now, until]?".
// The nodes slice is only read during the call.
type PartitionOracle interface {
	PartitionWillFail(nodes []int, now, until float64) bool
}

// Balancing is the paper's balancing predictor (Section 4.1): it
// returns Confidence for a node that really does fail inside the
// window according to the failure log, and 0 otherwise.
type Balancing struct {
	Index      *failure.Index
	Confidence float64 // the parameter "a" in [0, 1]
}

// NodeFailProb implements NodeProber.
func (b *Balancing) NodeFailProb(node int, now, until float64) float64 {
	if b.Index.HasFailureWithin(node, now, until) {
		return b.Confidence
	}
	return 0
}

// FailSet overwrites set with the nodes NodeFailProb answers
// Confidence for in (now, until] and returns Confidence; every other
// node is answered 0.
func (b *Balancing) FailSet(set []uint64, now, until float64) float64 {
	b.Index.FailingWithin(set, now, until)
	return b.Confidence
}

var _ NodeProber = (*Balancing)(nil)

// TieBreak is the paper's tie-breaking predictor (Section 4.2). For a
// node that really fails inside the window it answers "yes" with
// probability Accuracy (so the false-negative probability is
// 1-Accuracy); for a node that does not fail it always answers "no"
// (no false positives, as justified in the paper). A partition is
// predicted to fail if any of its nodes answers "yes".
//
// The yes/no draw for a given upcoming failure event is a deterministic
// hash of (node, failure time, seed): the predictor either "knows"
// about a particular failure or it does not, and repeated queries agree
// with each other. Schedulers rely on that: a policy must answer the
// same question the same way (see core.Policy).
type TieBreak struct {
	Index    *failure.Index
	Accuracy float64 // the parameter "a" = 1 - P(false negative)
	IntSeed  int64   // folded into the hash
}

// NewTieBreak returns a tie-breaking predictor.
func NewTieBreak(ix *failure.Index, accuracy float64, seed int64) *TieBreak {
	return &TieBreak{Index: ix, Accuracy: accuracy, IntSeed: seed}
}

// hashUnit maps (node, time, seed) to a uniform float64 in [0, 1),
// deterministically across runs and processes.
func hashUnit(node int, t float64, seed int64) float64 {
	// A small xorshift-style mixer over the three inputs; this is not
	// cryptographic, just a stable stateless PRF.
	x := uint64(node+1)*0x9E3779B97F4A7C15 ^ uint64(int64(t*1000)) ^ uint64(seed)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// NodeWillFail answers the per-node query.
func (tb *TieBreak) NodeWillFail(node int, now, until float64) bool {
	ft, ok := tb.Index.NextFailure(node, now)
	if !ok || ft > until {
		return false // no real failure in window: never a false positive
	}
	if tb.Accuracy >= 1 {
		return true
	}
	if tb.Accuracy <= 0 {
		return false
	}
	return hashUnit(node, ft, tb.IntSeed) < tb.Accuracy
}

// PartitionWillFail implements PartitionOracle.
func (tb *TieBreak) PartitionWillFail(nodes []int, now, until float64) bool {
	for _, n := range nodes {
		if tb.NodeWillFail(n, now, until) {
			return true
		}
	}
	return false
}

// WillFailSet overwrites set with the nodes NodeWillFail answers yes
// for: those whose first failure after now lies in (now, until] and
// whose hash draw for that failure passes. Only the nodes failing in
// the window are drawn, one NextFailure each.
func (tb *TieBreak) WillFailSet(set []uint64, now, until float64) {
	tb.Index.FailingWithin(set, now, until)
	if tb.Accuracy >= 1 {
		return
	}
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			node := w<<6 | b
			ft, _ := tb.Index.NextFailure(node, now)
			if !(hashUnit(node, ft, tb.IntSeed) < tb.Accuracy) {
				set[w] &^= 1 << b
			}
		}
	}
}

var _ PartitionOracle = (*TieBreak)(nil)

// Perfect is an oracle with confidence/accuracy 1: it reports exactly
// the failure log. It implements both predictor interfaces and is used
// for upper-bound ablations.
type Perfect struct {
	Index *failure.Index
}

// NodeFailProb implements NodeProber.
func (p *Perfect) NodeFailProb(node int, now, until float64) float64 {
	if p.Index.HasFailureWithin(node, now, until) {
		return 1
	}
	return 0
}

// PartitionWillFail implements PartitionOracle.
func (p *Perfect) PartitionWillFail(nodes []int, now, until float64) bool {
	for _, n := range nodes {
		if p.Index.HasFailureWithin(n, now, until) {
			return true
		}
	}
	return false
}

// FailSet overwrites set with the nodes that fail in (now, until] and
// returns 1, NodeFailProb's answer for them.
func (p *Perfect) FailSet(set []uint64, now, until float64) float64 {
	p.Index.FailingWithin(set, now, until)
	return 1
}

// Null is the no-prediction predictor (a = 0): every node looks healthy.
// Schedulers driven by Null degenerate to the fault-unaware baseline.
type Null struct{}

// NodeFailProb implements NodeProber.
func (Null) NodeFailProb(int, float64, float64) float64 { return 0 }

// PartitionWillFail implements PartitionOracle.
func (Null) PartitionWillFail([]int, float64, float64) bool { return false }

// FailSet clears set and returns 0: no node is flagged.
func (Null) FailSet(set []uint64, _, _ float64) float64 {
	clear(set)
	return 0
}

var (
	_ NodeProber      = (*Perfect)(nil)
	_ PartitionOracle = (*Perfect)(nil)
	_ NodeProber      = Null{}
	_ PartitionOracle = Null{}
)

// CombineIndependent folds per-node failure probabilities into a
// partition failure probability assuming independence:
// P_f = 1 - prod(1 - p_n). This is the Section 5.2.1 formula.
func CombineIndependent(probs []float64) float64 {
	surv := 1.0
	for _, p := range probs {
		surv *= 1 - p
	}
	return 1 - surv
}

// CombineMax folds per-node probabilities with the Section 4.1 formula
// P_f = max_n p_n.
func CombineMax(probs []float64) float64 {
	m := 0.0
	for _, p := range probs {
		if p > m {
			m = p
		}
	}
	return m
}
