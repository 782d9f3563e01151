package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/torus"
)

func testJob(id int, size int, est float64) *job.Job {
	g := torus.BlueGeneL()
	alloc, ok := g.RoundUpFeasible(size)
	if !ok {
		panic("bad size")
	}
	return &job.Job{ID: job.ID(id), Size: size, AllocSize: alloc, Estimate: est, Actual: est}
}

// probeOwner marks the hypothetical allocations of the exhaustive
// reference below.
const probeOwner int64 = -1

func ctxFor(gr *torus.Grid, j *job.Job, now float64) *PlacementContext {
	_, mfp := partition.MaxFree(gr)
	return &PlacementContext{Grid: gr, Job: j, Now: now, MFPBefore: mfp, MFP: partition.NewMFPCache()}
}

func mustMFPAfter(t *testing.T, gr *torus.Grid, p torus.Partition) int {
	t.Helper()
	after, err := mfpAfter(&PlacementContext{Grid: gr, MFP: partition.NewMFPCache()}, p)
	if err != nil {
		t.Fatal(err)
	}
	return after
}

func mustChoose(t *testing.T, pol Policy, ctx *PlacementContext, cands []torus.Partition) int {
	t.Helper()
	idx, err := pol.Choose(ctx, cands)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestMfpAfterRollsBack(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	p := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 2, Y: 2, Z: 2}}
	before := gr.FreeCount()
	after, err := mfpAfter(&PlacementContext{Grid: gr, MFP: partition.NewMFPCache()}, p)
	if err != nil {
		t.Fatal(err)
	}
	if gr.FreeCount() != before {
		t.Fatal("mfpAfter leaked a probe allocation")
	}
	if after >= 128 {
		t.Fatalf("mfpAfter = %d, must shrink below full machine", after)
	}
	if !gr.PartitionFree(p) {
		t.Fatal("probe partition left allocated")
	}
}

func TestBaselineKeepsMFPLarge(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// Occupy half the machine (z in [0,4)), leaving a 4x4x4 free block.
	half := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 4}}
	if err := gr.Allocate(half, 99); err != nil {
		t.Fatal(err)
	}
	j := testJob(1, 8, 100)
	cands := partition.ShapeFinder{}.FreeOfSize(gr, 8)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	idx := mustChoose(t, Baseline{}, ctxFor(gr, j, 0), cands)
	if idx < 0 || idx >= len(cands) {
		t.Fatalf("Choose = %d", idx)
	}
	chosen := cands[idx]
	// The chosen placement must achieve the best possible MFP-after.
	best := -1
	for _, p := range cands {
		if a := mustMFPAfter(t, gr, p); a > best {
			best = a
		}
	}
	if got := mustMFPAfter(t, gr, chosen); got != best {
		t.Fatalf("baseline chose MFP-after %d, best achievable %d", got, best)
	}
}

func TestPartitionFailProb(t *testing.T) {
	g := torus.BlueGeneL()
	p := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 2, Y: 1, Z: 1}}
	nodes := g.Nodes(p)
	tr := failure.Trace{{Time: 50, Node: nodes[0]}}
	tr.Sort()
	ix := failure.NewIndex(g.N(), tr)
	prober := &predict.Balancing{Index: ix, Confidence: 0.4}

	got := PartitionFailProb(g, prober, p, 0, 100, predict.CombineIndependent)
	if got != 0.4 {
		t.Fatalf("P_f = %g, want 0.4 (single failing node)", got)
	}
	if got := PartitionFailProb(g, prober, p, 60, 100, predict.CombineIndependent); got != 0 {
		t.Fatalf("window after failure: P_f = %g", got)
	}
	if got := PartitionFailProb(g, prober, p, 0, 100, predict.CombineMax); got != 0.4 {
		t.Fatalf("max combiner P_f = %g", got)
	}
}

// The balancing policy must avoid a partition that is predicted to fail
// when an equally good stable partition exists.
func TestBalancingAvoidsPredictedFailure(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	j := testJob(1, 128, 1000) // full machine: exactly one candidate normally
	// Use a small job with two symmetric candidates instead: fill all
	// but two disjoint 1x1x4 columns.
	gr = torus.NewGrid(g)
	jSmall := testJob(2, 4, 1000)
	// Occupy everything except columns at (0,0,z0..3) and (2,2, 4..7).
	for id := 0; id < g.N(); id++ {
		c := g.CoordOf(id)
		inA := c.X == 0 && c.Y == 0 && c.Z < 4
		inB := c.X == 2 && c.Y == 2 && c.Z >= 4
		if !inA && !inB {
			if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 99); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodeInA := g.Index(torus.Coord{X: 0, Y: 0, Z: 1})
	tr := failure.Trace{{Time: 500, Node: nodeInA}}
	ix := failure.NewIndex(g.N(), tr)

	for _, conf := range []float64{0.1, 0.5, 0.9} {
		pol := &Balancing{Prober: &predict.Balancing{Index: ix, Confidence: conf}}
		cands := partition.ShapeFinder{}.FreeOfSize(gr, 4)
		if len(cands) != 2 {
			t.Fatalf("expected exactly 2 candidates, got %d", len(cands))
		}
		idx := mustChoose(t, pol, ctxFor(gr, jSmall, 0), cands)
		chosen := cands[idx]
		if g.ContainsNode(chosen, nodeInA) {
			t.Fatalf("confidence %g: balancing chose the failing partition", conf)
		}
	}
	_ = j
}

// With a low confidence, the balancing policy must prefer a larger MFP
// over a stable partition when the MFP difference dominates E_loss; at
// high confidence the stable partition must win. This is the Figure 2
// (a)/(b) trade-off.
//
// Geometry: region A is an exact 2x2x2 pocket (placing an 8-node job
// there costs no MFP but every node of A fails); region B is a 2x2x3
// block (stable, but placing the job there shrinks the machine MFP
// from 12 to 8, i.e. L_MFP = 4). E_loss(A) = 8*(1-(1-a)^8) crosses
// E_loss(B) = 4 near a = 0.083.
func TestBalancingConfidenceTradeoff(t *testing.T) {
	g := torus.BlueGeneL()
	base := torus.NewGrid(g)
	for id := 0; id < g.N(); id++ {
		c := g.CoordOf(id)
		inA := c.X < 2 && c.Y < 2 && c.Z < 2
		inB := c.X >= 2 && c.Y >= 2 && c.Z >= 4 && c.Z < 7
		if !inA && !inB {
			if err := base.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 99); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every node of the pocket A fails during the job.
	var tr failure.Trace
	for x := 0; x < 2; x++ {
		for y := 0; y < 2; y++ {
			for z := 0; z < 2; z++ {
				tr = append(tr, failure.Event{Time: 500, Node: g.Index(torus.Coord{X: x, Y: y, Z: z})})
			}
		}
	}
	tr.Sort()
	ix := failure.NewIndex(g.N(), tr)

	j := testJob(3, 8, 1000)
	cands := partition.ShapeFinder{}.FreeOfSize(base, 8)
	if len(cands) != 3 {
		t.Fatalf("expected 3 candidates (1 in pocket, 2 in block), got %d", len(cands))
	}
	low := &Balancing{Prober: &predict.Balancing{Index: ix, Confidence: 0.05}}
	high := &Balancing{Prober: &predict.Balancing{Index: ix, Confidence: 0.95}}

	idxLow := mustChoose(t, low, ctxFor(base, j, 0), cands)
	idxHigh := mustChoose(t, high, ctxFor(base, j, 0), cands)
	pocketNode := g.Index(torus.Coord{X: 0, Y: 0, Z: 0})
	if !g.ContainsNode(cands[idxLow], pocketNode) {
		t.Fatal("low confidence should accept the risky pocket to preserve the MFP")
	}
	if g.ContainsNode(cands[idxHigh], pocketNode) {
		t.Fatal("high confidence should pay L_MFP to avoid the failing pocket")
	}
}

func TestTieBreakPrefersHealthyAmongTied(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	// Two symmetric free columns (ties on MFP); one will fail.
	for id := 0; id < g.N(); id++ {
		c := g.CoordOf(id)
		inA := c.X == 0 && c.Y == 0 && c.Z < 4
		inB := c.X == 2 && c.Y == 2 && c.Z < 4
		if !inA && !inB {
			if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 99); err != nil {
				t.Fatal(err)
			}
		}
	}
	badNode := g.Index(torus.Coord{X: 0, Y: 0, Z: 2})
	ix := failure.NewIndex(g.N(), failure.Trace{{Time: 100, Node: badNode}})
	pol := &TieBreak{Oracle: predict.NewTieBreak(ix, 1.0, 1)}
	j := testJob(4, 4, 1000)
	cands := partition.ShapeFinder{}.FreeOfSize(gr, 4)
	if len(cands) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(cands))
	}
	idx := mustChoose(t, pol, ctxFor(gr, j, 0), cands)
	if g.ContainsNode(cands[idx], badNode) {
		t.Fatal("tie-break chose the partition predicted to fail")
	}
}

func TestTieBreakAllPredictedFailPicksFirstTied(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	var tr failure.Trace
	for id := 0; id < g.N(); id++ {
		tr = append(tr, failure.Event{Time: 100, Node: id})
	}
	tr.Sort()
	ix := failure.NewIndex(g.N(), tr)
	pol := &TieBreak{Oracle: predict.NewTieBreak(ix, 1.0, 1)}
	j := testJob(5, 8, 1000)
	cands := partition.ShapeFinder{}.FreeOfSize(gr, 8)
	idx := mustChoose(t, pol, ctxFor(gr, j, 0), cands)
	if idx < 0 || idx >= len(cands) {
		t.Fatalf("Choose = %d with all candidates failing; must still pick one", idx)
	}
	// Must be tied at the optimal MFP.
	best := -1
	for _, p := range cands {
		if a := mustMFPAfter(t, gr, p); a > best {
			best = a
		}
	}
	if got := mustMFPAfter(t, gr, cands[idx]); got != best {
		t.Fatalf("fallback pick is not MFP-optimal: %d vs %d", got, best)
	}
}

func TestTieBreakEmptyCandidates(t *testing.T) {
	pol := &TieBreak{Oracle: predict.Null{}}
	gr := torus.NewGrid(torus.BlueGeneL())
	if idx := mustChoose(t, pol, ctxFor(gr, testJob(1, 1, 10), 0), nil); idx != -1 {
		t.Fatalf("Choose(nil candidates) = %d, want -1", idx)
	}
}

// With a Null predictor, balancing and tie-break must degenerate to the
// baseline choice.
func TestFaultAwareDegenerateToBaseline(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	occ := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 4, Y: 4, Z: 3}}
	if err := gr.Allocate(occ, 99); err != nil {
		t.Fatal(err)
	}
	j := testJob(6, 8, 500)
	cands := partition.ShapeFinder{}.FreeOfSize(gr, 8)
	baseIdx := mustChoose(t, Baseline{}, ctxFor(gr, j, 0), cands)
	balIdx := mustChoose(t, &Balancing{Prober: predict.Null{}}, ctxFor(gr, j, 0), cands)
	tbIdx := mustChoose(t, &TieBreak{Oracle: predict.Null{}}, ctxFor(gr, j, 0), cands)
	if mustMFPAfter(t, gr, cands[balIdx]) != mustMFPAfter(t, gr, cands[baseIdx]) {
		t.Fatal("balancing with null predictor diverged from baseline MFP")
	}
	if mustMFPAfter(t, gr, cands[tbIdx]) != mustMFPAfter(t, gr, cands[baseIdx]) {
		t.Fatal("tie-break with null predictor diverged from baseline MFP")
	}
}

// nodeProbs is a NodeProber with a fixed failure probability per node.
type nodeProbs []float64

func (p nodeProbs) NodeFailProb(node int, _, _ float64) float64 { return p[node] }

// combiner returns the per-node fold pol.Max selects.
func combiner(pol *Balancing) Combiner {
	if pol.Max {
		return predict.CombineMax
	}
	return predict.CombineIndependent
}

// exhaustiveBalancing is the balancing argmin computed the plain way:
// every candidate scored in full, its MFP found by allocating it,
// running partition.MaxFree and releasing it.
func exhaustiveBalancing(t *testing.T, gr *torus.Grid, j *job.Job, now float64, pol *Balancing, cands []torus.Partition) int {
	t.Helper()
	combine := combiner(pol)
	_, before := partition.MaxFree(gr)
	best, bestLoss := -1, 0.0
	for i, p := range cands {
		if err := gr.Allocate(p, probeOwner); err != nil {
			t.Fatal(err)
		}
		_, after := partition.MaxFree(gr)
		if err := gr.Release(p, probeOwner); err != nil {
			t.Fatal(err)
		}
		pf := PartitionFailProb(gr.Geometry(), pol.Prober, p, now, now+j.Estimate, combine)
		loss := float64(before-after) + pf*float64(j.Size)
		if best == -1 || loss < bestLoss {
			best, bestLoss = i, loss
		}
	}
	return best
}

// placementContexts returns the two ways a policy is primed: the bare
// context (MFPBefore and an MFP cache only, so every candidate is
// probed) and the scheduler's (MFPPart and the maximal-rectangle
// shortcut too).
func placementContexts(t *testing.T, gr *torus.Grid, j *job.Job, now float64) map[string]*PlacementContext {
	t.Helper()
	s, err := NewScheduler(Config{Policy: Baseline{}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*PlacementContext{"bare": ctxFor(gr, j, now), "scheduler": s.placementCtx(gr, j, now)}
}

// pocketGrid occupies the z<4 half of the machine except node (0,0,0):
// a one-node pocket whose use costs no MFP (L_MFP = 0) beside a free
// 4x4x4 block.
func pocketGrid(t *testing.T) *torus.Grid {
	t.Helper()
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	for id := 0; id < g.N(); id++ {
		if c := g.CoordOf(id); c.Z < 4 && c != (torus.Coord{}) {
			if err := gr.Allocate(torus.Partition{Base: c, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 99); err != nil {
				t.Fatal(err)
			}
		}
	}
	return gr
}

// The loss bound in Balancing.Choose must never change the choice:
// over seeded random grids, candidate subsets in random order, node
// probabilities (all zero, all equal, a few repeated values, or a
// balancing predictor over a random failure trace) and both combiners,
// Choose returns the exhaustive argmin's index under either context.
// The tallies prove the draws reach the cases the bound is about: some
// candidate's L_PF ties the running best exactly, some all-zero L_PF
// set scores a later candidate strictly better, and the bound prunes.
func TestBalancingMatchesExhaustiveArgmin(t *testing.T) {
	g := torus.BlueGeneL()
	rng := rand.New(rand.NewSource(20040426))
	var sizes []int
	for _, s := range g.FeasibleSizes() {
		if s <= 32 {
			sizes = append(sizes, s)
		}
	}
	levels := []float64{0, 0.25, 0.5, 1}
	var compared, ties, zeroBeaten, pruned int
	for trial := 0; trial < 600; trial++ {
		gr := torus.NewGrid(g)
		fill := 0.8 * rng.Float64()
		for id := 0; id < g.N(); id++ {
			if rng.Float64() < fill {
				if err := gr.Allocate(torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 99); err != nil {
					t.Fatal(err)
				}
			}
		}
		size := sizes[rng.Intn(len(sizes))]
		cands := partition.ShapeFinder{}.FreeOfSize(gr, size)
		if len(cands) == 0 {
			continue
		}
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		cands = cands[:1+rng.Intn(len(cands))]
		j := &job.Job{ID: 1, Size: 1 + rng.Intn(size), AllocSize: size, Estimate: 1 + 2000*rng.Float64()}
		now := 1000 * rng.Float64()

		pol := &Balancing{}
		if rng.Intn(2) == 1 {
			pol.Max = true
		}
		probs := make(nodeProbs, g.N())
		switch kind := trial % 4; kind {
		case 0: // all zero
		case 1, 2:
			c := levels[rng.Intn(len(levels))]
			for id := range probs {
				if kind == 2 {
					c = levels[rng.Intn(len(levels))]
				}
				probs[id] = c
			}
		case 3:
			var tr failure.Trace
			for k := rng.Intn(20); k > 0; k-- {
				tr = append(tr, failure.Event{Time: 3000 * rng.Float64(), Node: rng.Intn(g.N())})
			}
			tr.Sort()
			pol.Prober = &predict.Balancing{Index: failure.NewIndex(g.N(), tr), Confidence: levels[1+rng.Intn(3)]}
		}
		if pol.Prober == nil {
			pol.Prober = probs
		}

		// Tally what the bound sees along the full scan.
		combine := combiner(pol)
		_, before := partition.MaxFree(gr)
		allZero, bestLoss := true, 0.0
		for i, p := range cands {
			lPF := PartitionFailProb(g, pol.Prober, p, now, now+j.Estimate, combine) * float64(j.Size)
			allZero = allZero && lPF == 0
			if i > 0 && lPF >= bestLoss {
				pruned++
				if lPF == bestLoss {
					ties++
				}
			}
			if loss := float64(before-mustMFPAfter(t, gr, p)) + lPF; i == 0 || loss < bestLoss {
				bestLoss = loss
			}
		}
		want := exhaustiveBalancing(t, gr, j, now, pol, cands)
		if allZero && want > 0 {
			zeroBeaten++
		}

		hash, free := gr.OccupancyHash(), gr.FreeCount()
		for name, ctx := range placementContexts(t, gr, j, now) {
			got, err := pol.Choose(ctx, cands)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got != want {
				t.Fatalf("trial %d %s: Choose = %d, exhaustive argmin = %d (size %d, %d candidates)",
					trial, name, got, want, size, len(cands))
			}
			if gr.OccupancyHash() != hash || gr.FreeCount() != free {
				t.Fatalf("trial %d %s: Choose left the grid changed", trial, name)
			}
			compared++
		}
	}
	t.Logf("%d comparisons, %d exact ties, %d all-zero L_PF sets won by a later candidate, %d pruned",
		compared, ties, zeroBeaten, pruned)
	if compared < 600 || ties == 0 || zeroBeaten == 0 || pruned == 0 {
		t.Fatal("the draws miss a case the bound is about")
	}
}

// The bound's two edge cases on a fixed grid, against the exhaustive
// argmin: every candidate's L_PF equal to the running best (the pocket
// wins and the rest are pruned on equality), and all-zero L_PF, where
// a later candidate with a smaller L_MFP must still be probed and win.
func TestBalancingBoundEdgeCases(t *testing.T) {
	gr := pocketGrid(t)
	pocket := torus.Partition{Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	block := torus.Partition{Base: torus.Coord{Z: 4}, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	half := make(nodeProbs, gr.Geometry().N())
	for id := range half {
		half[id] = 0.5
	}
	j := testJob(1, 1, 100)
	for _, tc := range []struct {
		name   string
		prober predict.NodeProber
		cands  []torus.Partition
		want   int
	}{
		{"equal L_PF, pocket first", half, []torus.Partition{pocket, block}, 0},
		{"equal L_PF, pocket last", half, []torus.Partition{block, pocket}, 1},
		{"zero L_PF, pocket first", predict.Null{}, []torus.Partition{pocket, block}, 0},
		{"zero L_PF, pocket last", predict.Null{}, []torus.Partition{block, pocket}, 1},
	} {
		pol := &Balancing{Prober: tc.prober}
		if ex := exhaustiveBalancing(t, gr, j, 0, pol, tc.cands); ex != tc.want {
			t.Fatalf("%s: exhaustive argmin %d, want %d", tc.name, ex, tc.want)
		}
		for name, ctx := range placementContexts(t, gr, j, 0) {
			if got := mustChoose(t, pol, ctx, tc.cands); got != tc.want {
				t.Errorf("%s (%s context): Choose = %d, want %d", tc.name, name, got, tc.want)
			}
		}
	}
}

// A candidate the bound prunes is never scored, but an inconsistent
// one must still fail the decision: after the zero-loss pocket, a busy
// or invalid candidate with zero L_PF makes Choose return an error
// under either context (the scheduler's would otherwise have taken the
// disjointness shortcut for the busy one without touching its nodes).
func TestBalancingBoundStillChecksSkippedCandidates(t *testing.T) {
	gr := pocketGrid(t)
	pocket := torus.Partition{Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	busy := torus.Partition{Base: torus.Coord{X: 1}, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	invalid := torus.Partition{Base: torus.Coord{X: 9}, Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	pol := &Balancing{Prober: predict.Null{}}
	j := testJob(1, 1, 100)
	for _, bad := range []torus.Partition{busy, invalid} {
		for name, ctx := range placementContexts(t, gr, j, 0) {
			if idx, err := pol.Choose(ctx, []torus.Partition{pocket, bad}); err == nil {
				t.Errorf("%v (%s context): Choose = %d with no error", bad, name, idx)
			}
		}
	}
}

// A probe over an inconsistent grid (the candidate is already
// allocated) must surface as an error, not a panic.
func TestMfpAfterInconsistentGridErrors(t *testing.T) {
	g := torus.BlueGeneL()
	gr := torus.NewGrid(g)
	p := torus.Partition{Base: torus.Coord{}, Shape: torus.Shape{X: 2, Y: 2, Z: 2}}
	if err := gr.Allocate(p, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := mfpAfter(&PlacementContext{Grid: gr, MFP: partition.NewMFPCache()}, p); err == nil {
		t.Fatal("probe of an already-allocated partition succeeded")
	}
}

// errPolicy always fails; scheduling must propagate the error.
type errPolicy struct{}

func (errPolicy) Name() string { return "errpolicy" }
func (errPolicy) Choose(*PlacementContext, []torus.Partition) (int, error) {
	return -1, errors.New("synthetic policy failure")
}

func TestSchedulePropagatesPolicyError(t *testing.T) {
	s, err := NewScheduler(Config{Policy: errPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	q := job.NewQueue()
	q.Push(testJob(1, 8, 100))
	_, err = s.Schedule(torus.NewGrid(torus.BlueGeneL()), q, nil, 0)
	if err == nil || !strings.Contains(err.Error(), "synthetic policy failure") {
		t.Fatalf("Schedule error = %v, want wrapped policy failure", err)
	}
	if q.Len() != 1 {
		t.Fatal("failed scheduling decision consumed the queued job")
	}
}

func TestPolicyNames(t *testing.T) {
	if (Baseline{}).Name() != "baseline" {
		t.Error("baseline name")
	}
	if (&Balancing{}).Name() != "balancing" {
		t.Error("balancing name")
	}
	if (&TieBreak{}).Name() != "tiebreak" {
		t.Error("tiebreak name")
	}
}
