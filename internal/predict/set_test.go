package predict

import (
	"math"
	"math/rand"
	"testing"

	"bgsched/internal/failure"
)

// randomIndex indexes a trace of whole-second failures on a 100-node
// machine (two set words, the second partial), so windows end exactly
// on failures and nodes fail more than once in a window.
func randomIndex(rng *rand.Rand) *failure.Index {
	var tr failure.Trace
	for i := 0; i < 400; i++ {
		tr = append(tr, failure.Event{Time: float64(rng.Intn(3000)), Node: rng.Intn(100)})
	}
	tr.Sort()
	return failure.NewIndex(100, tr)
}

// randomWindow returns a window (now, until] that may be empty or
// inverted.
func randomWindow(rng *rand.Rand) (float64, float64) {
	now := float64(rng.Intn(3100)) - 50
	return now, now + float64(rng.Intn(600)) - 20
}

func inSet(set []uint64, n int) bool { return set[n>>6]>>(n&63)&1 == 1 }

// TestWillFailSetMatchesNodeWillFail: the tie-break set holds exactly
// the nodes NodeWillFail answers yes for.
func TestWillFailSetMatchesNodeWillFail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := randomIndex(rng)
	set := make([]uint64, 2)
	for _, acc := range []float64{0, 0.3, 1} {
		tb := NewTieBreak(ix, acc, 7)
		yes := 0
		for trial := 0; trial < 500; trial++ {
			now, until := randomWindow(rng)
			tb.WillFailSet(set, now, until)
			for n := 0; n < 100; n++ {
				want := tb.NodeWillFail(n, now, until)
				if got := inSet(set, n); got != want {
					t.Fatalf("accuracy %g, (%g, %g]: node %d in set %v, NodeWillFail %v", acc, now, until, n, got, want)
				}
				if want {
					yes++
				}
			}
		}
		if (acc > 0) != (yes > 0) {
			t.Fatalf("accuracy %g: %d yes answers", acc, yes)
		}
	}
}

// TestFailSetMatchesNodeFailProb: each knob prober answers a for the
// nodes of its set and 0 for the others.
func TestFailSetMatchesNodeFailProb(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ix := randomIndex(rng)
	set := make([]uint64, 2)
	for _, p := range []interface {
		NodeProber
		FailSet([]uint64, float64, float64) float64
	}{&Balancing{Index: ix, Confidence: 0.1}, &Balancing{Index: ix, Confidence: 0}, &Perfect{Index: ix}, Null{}} {
		for trial := 0; trial < 300; trial++ {
			now, until := randomWindow(rng)
			set[0], set[1] = ^uint64(0), ^uint64(0)
			a := p.FailSet(set, now, until)
			for n := 0; n < 100; n++ {
				want := 0.0
				if inSet(set, n) {
					want = a
				}
				if got := p.NodeFailProb(n, now, until); got != want {
					t.Fatalf("%T, (%g, %g]: node %d NodeFailProb %g, set answers %g", p, now, until, n, got, want)
				}
			}
		}
	}
}

// TestMachineHotMatchesPerNodeScan: the burst test's one search of the
// time-ordered view answers as a scan of every node over the same
// window.
func TestMachineHotMatchesPerNodeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hot, asked := 0, 0
	for trace := 0; trace < 20; trace++ {
		var tr failure.Trace
		for i := rng.Intn(30); i > 0; i-- {
			tr = append(tr, failure.Event{Time: float64(rng.Intn(20)) * 3600, Node: rng.Intn(16)})
		}
		tr.Sort()
		l := NewLearned(failure.NewIndex(16, tr))
		for trial := 0; trial < 200; trial++ {
			now := float64(rng.Intn(80)) * 900 // on failure times, and 0
			want := false
			for n := 0; n < 16; n++ {
				want = want || l.History.HasFailureWithin(n, now-l.BurstWindow, math.Nextafter(now, 0))
			}
			if got := l.machineHot(now); got != want {
				t.Fatalf("trace %d, now %g: machineHot %v, per-node scan %v", trace, now, got, want)
			}
			if want {
				hot++
			}
			asked++
		}
	}
	if hot == 0 || hot == asked {
		t.Fatalf("%d of %d queries hot: the traces exercise one answer only", hot, asked)
	}
}
