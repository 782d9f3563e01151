// Package core implements the paper's primary contribution: the job
// placement policies — Krevat's maximal-free-partition (MFP) heuristic,
// the fault-aware balancing algorithm (Section 5.2.1) and the
// tie-breaking algorithm (Section 5.2.2) — and the FCFS space-sharing
// scheduler with backfilling and migration they plug into.
package core

import (
	"fmt"

	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/torus"
)

// PlacementContext is everything a policy may consult when ranking
// candidate partitions for one job.
type PlacementContext struct {
	Grid      *torus.Grid
	Job       *job.Job
	Now       float64
	MFPBefore int // maximal free partition size before placing the job
	// MFPPart is a maximal free partition achieving MFPBefore (zero
	// Shape when unknown or the machine is full). When consistent with
	// MFPBefore it licenses the disjointness shortcut: placing a
	// candidate that does not touch MFPPart cannot shrink the MFP —
	// occupancy only grows, so the MFP cannot grow either, and MFPPart
	// itself stays free — hence MFP(after) == MFPBefore exactly,
	// without a probe.
	MFPPart torus.Partition
	// MFP answers the policies' probes of hypothetical placements on
	// Grid, memoized per exact occupancy state (see
	// partition.MFPCache). It is required.
	MFP *partition.MFPCache

	// Policy scratch, reused across Choose calls by a scheduler that
	// reuses its context; policies must not let it escape.
	floats []float64
	ints   []int
	nodes  []int
	set    []uint64 // a predictor's node set (see nodeSet)
}

// Policy ranks candidate partitions for a job and picks one.
// Choose returns the index of the selected candidate, or -1 to decline
// placement (no built-in policy declines; the escape hatch exists for
// experimental policies). A non-nil error means the policy could not
// evaluate the candidates — typically an internal grid inconsistency —
// and aborts the scheduling decision; it must leave the grid unchanged.
//
// Choose must be a deterministic function of the grid's occupancy,
// ctx.Job, ctx.Now and the candidates: the scheduler chooses an EASY
// reservation's partition once and reuses the answer for as long as
// those inputs hold, and chooses it only when a backfill reads it, so
// a policy that could answer the same question two ways would make
// decisions depend on what earlier calls asked.
type Policy interface {
	Name() string
	Choose(ctx *PlacementContext, cands []torus.Partition) (int, error)
}

// mfpShortcut reports whether the context carries a maximal free
// partition consistent with MFPBefore, enabling the disjointness
// shortcut in mfpAfter.
func (ctx *PlacementContext) mfpShortcut() bool {
	return ctx.MFPBefore > 0 && ctx.MFPPart.Shape.Size() == ctx.MFPBefore
}

// nodeSet returns the context's node-set scratch, one bit per node of
// the grid, for a predictor to overwrite.
func (ctx *PlacementContext) nodeSet() []uint64 {
	words := (ctx.Grid.Geometry().N() + 63) / 64
	if cap(ctx.set) < words {
		ctx.set = make([]uint64, words)
	}
	return ctx.set[:words]
}

// mfpAfter returns the MFP size of the grid with p hypothetically
// allocated, never mutating the grid. p must be valid and free (the
// conditions Allocate enforces): a refused candidate means internal
// inconsistency (candidates come from a finder over this same grid),
// reported as an error rather than a panic so one bad sweep point
// cannot take down its siblings.
func mfpAfter(ctx *PlacementContext, p torus.Partition) (int, error) {
	if !ctx.Grid.Geometry().ValidPartition(p) {
		return 0, errProbe(p)
	}
	_, busy := ctx.Grid.Footprint(nil, p)
	return mfpAfterRead(ctx, p, busy)
}

// mfpAfterRead is mfpAfter for a valid p whose footprint the caller
// has read: busy reports whether any node of p is allocated. When the
// context's MFPPart is consistent and p does not overlap it, the
// answer is MFPBefore — the common case once the machine fragments.
// Otherwise the MFP cache's plate probe answers.
func mfpAfterRead(ctx *PlacementContext, p torus.Partition, busy bool) (int, error) {
	if busy {
		return 0, errProbe(p)
	}
	if ctx.mfpShortcut() && !ctx.Grid.Geometry().Overlaps(p, ctx.MFPPart) {
		return ctx.MFPBefore, nil
	}
	_, size := ctx.MFP.MaxFreeProbe(ctx.Grid, p)
	return size, nil
}

// errProbe is the error for a candidate a probe allocation refuses:
// invalid on the grid's geometry or not entirely free.
func errProbe(p torus.Partition) error {
	return fmt.Errorf("core: probe allocation of %v failed: partition invalid or not free", p)
}

// Baseline is Krevat's placement heuristic: keep the maximal free
// partition as large as possible, i.e. minimise
// L_MFP = MFP(before) - MFP(after). Ties break to the first candidate
// in the finder's deterministic order.
type Baseline struct{}

// Name implements Policy.
func (Baseline) Name() string { return "baseline" }

// Choose implements Policy. The scan stops at the first candidate whose
// after-MFP equals MFPBefore: the MFP can never grow under an
// allocation, so no later candidate can beat it, and ties already break
// to the earliest index — the selection is identical to the full scan.
func (Baseline) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	bound := ctx.mfpShortcut()
	best := -1
	bestMFP := -1
	for i, p := range cands {
		after, err := mfpAfter(ctx, p)
		if err != nil {
			return -1, err
		}
		if after > bestMFP {
			bestMFP = after
			best = i
			if bound && after == ctx.MFPBefore {
				break
			}
		}
	}
	return best, nil
}

// Combiner folds per-node failure probabilities into a partition
// failure probability P_f.
type Combiner func([]float64) float64

// PartitionFailProb evaluates P_f for partition p over the window
// (now, until] under the given node prober and combiner, one node at a
// time. It is the reference the balancing policy's node-set path
// (setFailProb) matches bit for bit.
func PartitionFailProb(g torus.Geometry, prober predict.NodeProber, p torus.Partition, now, until float64, combine Combiner) float64 {
	return partitionFailProbInto(nil, g, prober, p, now, until, combine)
}

// partitionFailProbInto is PartitionFailProb gathering node
// probabilities into a caller-owned buffer so repeated evaluations do
// not allocate. probs only needs capacity; it is truncated first.
func partitionFailProbInto(probs []float64, g torus.Geometry, prober predict.NodeProber, p torus.Partition, now, until float64, combine Combiner) float64 {
	probs = probs[:0]
	g.ForEachNode(p, func(id int) bool {
		probs = append(probs, prober.NodeFailProb(id, now, until))
		return true
	})
	return combine(probs)
}

// setProber is a predict.NodeProber whose answer takes two values:
// FailSet overwrites a node set with the nodes answered a, returns a,
// and every other node is answered 0 (predict.Balancing, Perfect and
// Null). The balancing policy then needs only how many of a
// candidate's nodes the set holds.
type setProber interface {
	FailSet(set []uint64, now, until float64) (a float64)
}

// setFailProb returns P_f for a candidate holding k nodes answered a,
// every other node answered 0 — bit for bit the per-node fold, since
// multiplying by 1 - 0 is exact: the product formula is 1 - s_k with
// s_k the k-fold left product of (1 - a), computed by the same
// multiplications, and the max formula is a when some node has p = a
// > 0.
func setFailProb(k int, a float64, maxFormula bool) float64 {
	if maxFormula {
		if k > 0 && a > 0 {
			return a
		}
		return 0
	}
	surv := 1.0
	for ; k > 0; k-- {
		surv *= 1 - a
	}
	return 1 - surv
}

// empty reports whether a node set holds no node.
func empty(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// Balancing is the paper's balancing algorithm: minimise the total
// expected loss E_loss = L_MFP + L_PF, where L_MFP is the free space
// consumed from the maximal free partition and L_PF = P_f * s_j is the
// expected work lost if the partition fails before the job completes
// (the job is assumed to fail just before completion; Section 5.2.1).
type Balancing struct {
	Prober predict.NodeProber
	// Max selects the Section 4.1 formula P_f = max_n p_n
	// (predict.CombineMax); false gives the Section 5.2.1 product
	// P_f = 1 - prod(1 - p_n) (predict.CombineIndependent).
	Max bool
}

// Name implements Policy.
func (b *Balancing) Name() string { return "balancing" }

// Choose implements Policy. A setProber's node set is built once per
// call, and each candidate's P_f comes from the count of its nodes in
// that set (setFailProb), read with the candidate's occupancy in one
// pass over its z-column words (torus.Grid.Footprint); any other
// prober is asked node by node. L_PF is computed first: MFPBefore is
// the grid's MFP, so L_MFP >= 0 and E_loss >= L_PF (floating-point
// addition of a non-negative term never rounds below the other term),
// and a candidate whose L_PF alone reaches the best loss so far cannot
// win, since a winner must be strictly lower. Such a candidate skips
// its MFP probe but still gets the validity and freeness check the
// probe would have made, so an inconsistent candidate is reported
// whether or not it is pruned. The selection is identical to scoring
// every candidate in full.
func (b *Balancing) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	gr := ctx.Grid
	g := gr.Geometry()
	until := ctx.Now + ctx.Job.Estimate
	var set []uint64
	var a float64
	sp, bySet := b.Prober.(setProber)
	if bySet {
		set = ctx.nodeSet()
		a = sp.FailSet(set, ctx.Now, until)
		if a == 0 || empty(set) {
			set = nil // every P_f is 0: count nothing
		}
	} else if cap(ctx.floats) < ctx.Job.AllocSize {
		ctx.floats = make([]float64, 0, ctx.Job.AllocSize)
	}
	combine := predict.CombineIndependent
	if b.Max {
		combine = predict.CombineMax
	}
	best := -1
	bestLoss := 0.0
	for i, p := range cands {
		if !g.ValidPartition(p) {
			return -1, errProbe(p)
		}
		k, busy := gr.Footprint(set, p)
		var pf float64
		if bySet {
			pf = setFailProb(k, a, b.Max)
		} else {
			pf = partitionFailProbInto(ctx.floats, g, b.Prober, p, ctx.Now, until, combine)
		}
		lPF := pf * float64(ctx.Job.Size)
		if best != -1 && lPF >= bestLoss {
			if busy {
				return -1, errProbe(p)
			}
			continue
		}
		after, err := mfpAfterRead(ctx, p, busy)
		if err != nil {
			return -1, err
		}
		loss := float64(ctx.MFPBefore-after) + lPF
		if best == -1 || loss < bestLoss {
			best = i
			bestLoss = loss
		}
	}
	return best, nil
}

// setOracle is a predict.PartitionOracle that answers yes for exactly
// the partitions holding a node of the set WillFailSet writes
// (predict.TieBreak).
type setOracle interface {
	WillFailSet(set []uint64, now, until float64)
}

// TieBreak is the paper's tie-breaking algorithm: rank candidates by
// the baseline MFP heuristic, and among the candidates tied at the
// optimal MFP prefer one the tie-breaking predictor expects to survive
// the job. If every tied candidate is predicted to fail, the choice is
// arbitrary (the first; Section 4.2).
type TieBreak struct {
	Oracle predict.PartitionOracle
}

// Name implements Policy.
func (tb *TieBreak) Name() string { return "tiebreak" }

// Choose implements Policy. A setOracle's node set is built once per
// call and each tied candidate's z-column words are tested against it
// (torus.Grid.Footprint); any other oracle is handed the candidate's
// nodes in a reused buffer.
func (tb *TieBreak) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	if len(cands) == 0 {
		return -1, nil
	}
	gr := ctx.Grid
	until := ctx.Now + ctx.Job.Estimate

	bestMFP := -1
	if cap(ctx.ints) < len(cands) {
		ctx.ints = make([]int, len(cands))
	}
	afters := ctx.ints[:len(cands)]
	for i, p := range cands {
		after, err := mfpAfter(ctx, p)
		if err != nil {
			return -1, err
		}
		afters[i] = after
		if afters[i] > bestMFP {
			bestMFP = afters[i]
		}
	}
	var set []uint64
	so, bySet := tb.Oracle.(setOracle)
	if bySet {
		set = ctx.nodeSet()
		so.WillFailSet(set, ctx.Now, until)
	}
	first := -1
	for i, p := range cands {
		if afters[i] != bestMFP {
			continue
		}
		if first == -1 {
			first = i
		}
		var fails bool
		if bySet {
			k, _ := gr.Footprint(set, p)
			fails = k > 0
		} else {
			ctx.nodes = gr.Geometry().AppendNodes(ctx.nodes[:0], p)
			fails = tb.Oracle.PartitionWillFail(ctx.nodes, ctx.Now, until)
		}
		if !fails {
			return i, nil // tied on MFP and predicted healthy
		}
	}
	return first, nil // all tied candidates predicted to fail: arbitrary
}

var (
	_ Policy = Baseline{}
	_ Policy = (*Balancing)(nil)
	_ Policy = (*TieBreak)(nil)
)
