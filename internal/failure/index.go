package failure

import (
	"math"
	"sort"
)

// Index answers "does node n fail within a time window" queries in
// O(log k), and "which nodes fail within a time window" in one search
// plus one step per event in the window. It is the data structure
// behind both the balancing and the tie-breaking predictors: the
// paper's predictors are defined directly in terms of lookups into the
// failure log (Section 4).
//
// Every indexed time is stored once: node by node in one flat array,
// each node's times ascending, with a time-ordered view holding
// positions into it. Events whose node lies outside [0, nodes) or
// whose time is NaN are not indexed, and an index holds at most
// math.MaxInt32 events. An Index is read-only once built, so
// concurrent runs may share one.
type Index struct {
	nodes int
	times []float64 // every node's failure times, node by node, each node's ascending
	offs  []int32   // node n's times are times[offs[n]:offs[n+1]]
	order []int32   // positions in times, in ascending time order
}

// NewIndex builds the index for a trace. A trace in time order, as
// Generate and ReadCSV return it, is indexed in two linear passes; any
// other input is sorted by time first.
func NewIndex(nodes int, tr Trace) *Index {
	ix := &Index{nodes: nodes, offs: make([]int32, nodes+1)}
	sorted, last := true, math.Inf(-1)
	for _, e := range tr {
		if indexed(e, nodes) {
			ix.offs[e.Node+1]++
			sorted = sorted && e.Time >= last
			last = e.Time
		}
	}
	if !sorted {
		var byTime Trace
		for _, e := range tr {
			if indexed(e, nodes) {
				byTime = append(byTime, e)
			}
		}
		sort.Slice(byTime, func(i, j int) bool { return byTime[i].Time < byTime[j].Time })
		tr = byTime
	}
	for n := 1; n <= nodes; n++ {
		ix.offs[n] += ix.offs[n-1]
	}
	ix.times = make([]float64, ix.offs[nodes])
	ix.order = make([]int32, 0, ix.offs[nodes])
	// Scatter in time order, using offs[n] as node n's cursor: each
	// node's times land ascending, and order lists positions by time.
	for _, e := range tr {
		if indexed(e, nodes) {
			pos := ix.offs[e.Node]
			ix.times[pos] = e.Time
			ix.order = append(ix.order, pos)
			ix.offs[e.Node]++
		}
	}
	// Each cursor now holds its node's end, the next node's start.
	copy(ix.offs[1:], ix.offs[:nodes])
	ix.offs[0] = 0
	return ix
}

// indexed reports whether NewIndex keeps event e.
func indexed(e Event, nodes int) bool {
	return e.Node >= 0 && e.Node < nodes && !math.IsNaN(e.Time)
}

// Nodes returns the machine size the index was built for.
func (ix *Index) Nodes() int { return ix.nodes }

// Bytes returns the size of the index's arrays, from their lengths.
func (ix *Index) Bytes() int64 {
	return int64(len(ix.times))*8 + int64(len(ix.offs)+len(ix.order))*4
}

// nodeTimes returns node's failure times, ascending; none for a node
// outside the machine.
func (ix *Index) nodeTimes(node int) []float64 {
	if node < 0 || node >= ix.nodes {
		return nil
	}
	return ix.times[ix.offs[node]:ix.offs[node+1]]
}

// firstAfter returns the index in times of node's first failure
// strictly after the given time, or len(times) if there is none.
func firstAfter(times []float64, after float64) int {
	return sort.Search(len(times), func(i int) bool { return times[i] > after })
}

// HasFailureWithin reports whether node has a failure event with time
// in the half-open window (after, until].
func (ix *Index) HasFailureWithin(node int, after, until float64) bool {
	times := ix.nodeTimes(node)
	i := firstAfter(times, after)
	return i < len(times) && times[i] <= until
}

// NextFailure returns the first failure of node strictly after the
// given time, if any.
func (ix *Index) NextFailure(node int, after float64) (float64, bool) {
	times := ix.nodeTimes(node)
	i := firstAfter(times, after)
	if i == len(times) {
		return 0, false
	}
	return times[i], true
}

// CountWithin returns the number of failures of node in (after, until].
func (ix *Index) CountWithin(node int, after, until float64) int {
	if !(until > after) {
		return 0
	}
	times := ix.nodeTimes(node)
	return firstAfter(times, until) - firstAfter(times, after)
}

// FailureCount returns the total number of indexed events for node.
func (ix *Index) FailureCount(node int) int {
	return len(ix.nodeTimes(node))
}

// firstEventAfter returns the index in the time-ordered view of the
// first event strictly after the given time, or len(order).
func (ix *Index) firstEventAfter(after float64) int {
	return sort.Search(len(ix.order), func(i int) bool { return ix.times[ix.order[i]] > after })
}

// AnyWithin reports whether any node has a failure in (after, until]:
// one search of the time-ordered view.
func (ix *Index) AnyWithin(after, until float64) bool {
	i := ix.firstEventAfter(after)
	return i < len(ix.order) && ix.times[ix.order[i]] <= until
}

// FailingWithin overwrites set, a node bitset with bit n%64 of word
// n/64 standing for node n (the layout of torus.Grid.Occupancy), with
// the nodes that have a failure in (after, until]: afterwards bit n is
// set iff HasFailureWithin(n, after, until). It makes one search of the
// time-ordered view and walks the events up to until. set must hold at
// least (Nodes()+63)/64 words.
func (ix *Index) FailingWithin(set []uint64, after, until float64) {
	clear(set)
	for i := ix.firstEventAfter(after); i < len(ix.order); i++ {
		pos := ix.order[i]
		if !(ix.times[pos] <= until) {
			break
		}
		n := ix.nodeAt(pos)
		set[n>>6] |= 1 << (n & 63)
	}
}

// nodeAt returns the node whose times hold position pos.
func (ix *Index) nodeAt(pos int32) int {
	return sort.Search(ix.nodes, func(n int) bool { return ix.offs[n+1] > pos })
}
