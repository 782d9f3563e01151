package core

import (
	"math/rand"
	"testing"

	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/torus"
)

// setGeoms are the machines the node-set scoring is checked on: the
// paper's torus, a torus and a mesh whose z-columns straddle words of
// the node set, a 33-node column and a full-word (64-node) column.
var setGeoms = []torus.Geometry{
	torus.NewGeometry(4, 4, 8, true),
	torus.NewGeometry(3, 5, 7, true),
	torus.NewGeometry(3, 5, 7, false),
	torus.NewGeometry(1, 3, 33, true),
	torus.NewGeometry(2, 2, 64, true),
}

// perNodeProber and perNodeOracle hide a predictor's node set, so the
// policies take their per-node path.
type (
	perNodeProber struct{ predict.NodeProber }
	perNodeOracle struct{ predict.PartitionOracle }
)

var (
	_ setProber = (*predict.Balancing)(nil)
	_ setProber = (*predict.Perfect)(nil)
	_ setProber = predict.Null{}
	_ setOracle = (*predict.TieBreak)(nil)
)

// randomSetIndex indexes up to three whole-second failures per node
// over (0, 1000], so windows flag from none to every node.
func randomSetIndex(g torus.Geometry, rng *rand.Rand) *failure.Index {
	var tr failure.Trace
	for k := rng.Intn(3 * g.N()); k > 0; k-- {
		tr = append(tr, failure.Event{Time: float64(1 + rng.Intn(1000)), Node: rng.Intn(g.N())})
	}
	tr.Sort()
	return failure.NewIndex(g.N(), tr)
}

// randomPartition returns a valid partition of g, wrapping any
// dimension of a torus.
func randomPartition(g torus.Geometry, rng *rand.Rand) torus.Partition {
	d := g.Dims
	for {
		p := torus.Partition{
			Base:  torus.Coord{X: rng.Intn(d.X), Y: rng.Intn(d.Y), Z: rng.Intn(d.Z)},
			Shape: torus.Shape{X: 1 + rng.Intn(d.X), Y: 1 + rng.Intn(d.Y), Z: 1 + rng.Intn(d.Z)},
		}
		if g.ValidPartition(p) {
			return p
		}
	}
}

// randomOccupancy allocates about one node in five of a fresh grid.
func randomOccupancy(g torus.Geometry, rng *rand.Rand) *torus.Grid {
	gr := torus.NewGrid(g)
	for id := 0; id < g.N(); id++ {
		if rng.Intn(5) == 0 {
			if err := gr.Allocate(torus.Partition{Base: g.CoordOf(id), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}, 1); err != nil {
				panic(err)
			}
		}
	}
	return gr
}

// choiceCtx is a placement context for a job of the given allocation
// size at now, with the grid's MFP and a maximal free partition.
func choiceCtx(gr *torus.Grid, size int, now float64, rng *rand.Rand) *PlacementContext {
	part, mfp := partition.MaxFree(gr)
	j := &job.Job{ID: 1, Size: 1 + rng.Intn(size), AllocSize: size, Estimate: float64(1 + rng.Intn(400))}
	return &PlacementContext{Grid: gr, Job: j, Now: now, MFPBefore: mfp, MFPPart: part, MFP: partition.NewMFPCache()}
}

// FuzzSetLPFMatchesPartitionFailProb checks the balancing policy's
// node-set P_f — a popcount over each candidate's column words, then
// setFailProb — against the per-node fold PartitionFailProb with ==,
// for the balancing predictor at confidence a under either formula,
// and checks that Choose selects the same candidate on both paths.
// The seed corpus covers a in {0, 0.1, 0.5, 0.9, 1} and both formulas
// on every machine of setGeoms.
func FuzzSetLPFMatchesPartitionFailProb(f *testing.F) {
	for gi := range setGeoms {
		for _, a := range []float64{0, 0.1, 0.5, 0.9, 1} {
			f.Add(uint8(gi), a, false, int64(gi))
			f.Add(uint8(gi), a, true, int64(gi))
		}
	}
	f.Fuzz(func(t *testing.T, gi uint8, a float64, maxFormula bool, seed int64) {
		if !(a >= 0 && a <= 1) {
			t.Skip("confidence outside [0, 1]")
		}
		g := setGeoms[int(gi)%len(setGeoms)]
		rng := rand.New(rand.NewSource(seed))
		prober := &predict.Balancing{Index: randomSetIndex(g, rng), Confidence: a}
		combine := combiner(&Balancing{Max: maxFormula})
		idle := torus.NewGrid(g)
		set := make([]uint64, (g.N()+63)/64)
		for trial := 0; trial < 200; trial++ {
			now := float64(rng.Intn(1000))
			until := now + float64(rng.Intn(300))
			p := randomPartition(g, rng)
			pa := prober.FailSet(set, now, until)
			k, _ := idle.Footprint(set, p)
			got := setFailProb(k, pa, maxFormula)
			if want := PartitionFailProb(g, prober, p, now, until, combine); got != want {
				t.Fatalf("%s %v, (%g, %g], a=%g, max=%v: node-set P_f %v (k=%d), per-node %v",
					g.Spec(), p, now, until, a, maxFormula, got, k, want)
			}
		}

		sizes := g.FeasibleSizes()
		for trial := 0; trial < 4; trial++ {
			gr := randomOccupancy(g, rng)
			size := sizes[rng.Intn(min(len(sizes), 8))]
			cands := partition.ShapeFinder{}.FreeOfSize(gr, size)
			if len(cands) == 0 {
				continue
			}
			now := float64(rng.Intn(1000))
			ctx := choiceCtx(gr, size, now, rng)
			bySet, err := (&Balancing{Prober: prober, Max: maxFormula}).Choose(ctx, cands)
			if err != nil {
				t.Fatal(err)
			}
			perNode, err := (&Balancing{Prober: perNodeProber{prober}, Max: maxFormula}).Choose(ctx, cands)
			if err != nil {
				t.Fatal(err)
			}
			if bySet != perNode {
				t.Fatalf("%s, size %d at %g: node-set path chose %d, per-node path %d", g.Spec(), size, now, bySet, perNode)
			}
		}
	})
}

// TestTieBreakSetMatchesPerNode: the tie-break policy chooses the same
// candidate from the oracle's node set as from per-candidate node
// lists, and the per-node path reuses one node buffer.
func TestTieBreakSetMatchesPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range setGeoms {
		sizes := g.FeasibleSizes()
		for _, acc := range []float64{0, 0.3, 1} {
			oracle := predict.NewTieBreak(randomSetIndex(g, rng), acc, 5)
			for trial := 0; trial < 30; trial++ {
				gr := randomOccupancy(g, rng)
				size := sizes[rng.Intn(min(len(sizes), 8))]
				cands := partition.ShapeFinder{}.FreeOfSize(gr, size)
				if len(cands) == 0 {
					continue
				}
				ctx := choiceCtx(gr, size, float64(rng.Intn(1000)), rng)
				bySet := mustChoose(t, &TieBreak{Oracle: oracle}, ctx, cands)
				perNode := &TieBreak{Oracle: perNodeOracle{oracle}}
				if got := mustChoose(t, perNode, ctx, cands); got != bySet {
					t.Fatalf("%s, accuracy %g: node-set path chose %d, per-node path %d", g.Spec(), acc, bySet, got)
				}
				if allocs := testing.AllocsPerRun(5, func() { mustChoose(t, perNode, ctx, cands) }); allocs != 0 {
					t.Fatalf("%s: per-node tie-break allocates %v times per Choose", g.Spec(), allocs)
				}
			}
		}
	}
}
