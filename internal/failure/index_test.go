package failure

import (
	"math"
	"math/rand"
	"testing"
)

// windowTrace is a trace on 70 nodes (two set words, the second
// partial) with whole-second times, so events share times, and with
// events on nodes outside the machine and at a NaN time, which the
// index must leave out.
func windowTrace(rng *rand.Rand) Trace {
	var tr Trace
	for i := 0; i < 300; i++ {
		tr = append(tr, Event{Time: float64(rng.Intn(200)), Node: rng.Intn(70)})
	}
	tr = append(tr, Event{Time: 5, Node: 70}, Event{Time: 6, Node: -1}, Event{Time: math.NaN(), Node: 3})
	tr.Sort()
	return tr
}

// TestFailingWithinMatchesBruteForce checks the window's node set
// against the trace and against HasFailureWithin, for windows whose
// ends sit exactly on event times, empty and inverted windows, and an
// index built from the same trace out of order.
func TestFailingWithinMatchesBruteForce(t *testing.T) {
	const nodes = 70
	rng := rand.New(rand.NewSource(1))
	tr := windowTrace(rng)
	shuffled := append(Trace(nil), tr...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, ix := range []*Index{NewIndex(nodes, tr), NewIndex(nodes, shuffled)} {
		set := make([]uint64, 2)
		for trial := 0; trial < 2000; trial++ {
			after := float64(rng.Intn(210)) - 5 // on an event time whenever one exists there
			until := after + float64(rng.Intn(40)) - 5
			set[0], set[1] = ^uint64(0), ^uint64(0) // overwritten, not OR-ed into
			ix.FailingWithin(set, after, until)
			anyFails := false
			for n := 0; n < nodes; n++ {
				brute := false
				for _, e := range tr {
					brute = brute || (e.Node == n && e.Time > after && e.Time <= until)
				}
				got := set[n>>6]>>(n&63)&1 == 1
				if got != brute || got != ix.HasFailureWithin(n, after, until) {
					t.Fatalf("(%g, %g]: node %d flagged %v, brute force %v, HasFailureWithin %v",
						after, until, n, got, brute, ix.HasFailureWithin(n, after, until))
				}
				anyFails = anyFails || brute
			}
			if set[1]>>(nodes-64) != 0 {
				t.Fatalf("(%g, %g]: bits past node %d set: %#x", after, until, nodes-1, set[1])
			}
			if got := ix.AnyWithin(after, until); got != anyFails {
				t.Fatalf("AnyWithin(%g, %g) = %v, want %v", after, until, got, anyFails)
			}
		}
	}
}

// TestIndexOrderInsensitive: an index built from a shuffled trace
// answers every per-node query as one built from the sorted trace.
func TestIndexOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := windowTrace(rng)
	shuffled := append(Trace(nil), tr...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a, b := NewIndex(70, tr), NewIndex(70, shuffled)
	for n := -1; n <= 70; n++ {
		if a.FailureCount(n) != b.FailureCount(n) {
			t.Fatalf("FailureCount(%d): %d sorted, %d shuffled", n, a.FailureCount(n), b.FailureCount(n))
		}
		for after := -1.0; after < 202; after += 3 {
			until := after + 17
			ta, oka := a.NextFailure(n, after)
			tb, okb := b.NextFailure(n, after)
			if ta != tb || oka != okb ||
				a.HasFailureWithin(n, after, until) != b.HasFailureWithin(n, after, until) ||
				a.CountWithin(n, after, until) != b.CountWithin(n, after, until) {
				t.Fatalf("node %d, (%g, %g]: sorted and shuffled indexes disagree", n, after, until)
			}
		}
	}
	if got := a.FailureCount(3); got != countNode(tr, 3)-1 {
		t.Fatalf("FailureCount(3) = %d: the NaN-time event must not be indexed", got)
	}
}

func countNode(tr Trace, n int) int {
	c := 0
	for _, e := range tr {
		if e.Node == n {
			c++
		}
	}
	return c
}

// TestIndexBytes: the index weighs 8 bytes per indexed time, 4 per
// time-ordered position and 4 per node offset; the three events left
// out of windowTrace weigh nothing.
func TestIndexBytes(t *testing.T) {
	ix := NewIndex(70, windowTrace(rand.New(rand.NewSource(3))))
	if got, want := ix.Bytes(), int64(300*8+300*4+71*4); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}
