package sim

import (
	"bgsched/internal/job"
)

// eventKind discriminates simulator events (Section 6.1): job arrivals,
// job completions, node failures, checkpoint completions, and — when a
// node downtime is configured — node recoveries.
type eventKind int

const (
	evArrival eventKind = iota
	evFinish
	evFailure
	evCheckpoint
	evCkptPoll
	evNodeUp

	// evKindCount bounds the known kinds; keep it last.
	evKindCount
)

func (k eventKind) String() string {
	switch k {
	case evArrival:
		return "arrival"
	case evFinish:
		return "finish"
	case evFailure:
		return "failure"
	case evCheckpoint:
		return "checkpoint"
	case evCkptPoll:
		return "ckpt-poll"
	case evNodeUp:
		return "nodeup"
	}
	return "unknown"
}

// event is one entry of the simulation calendar. Finish and checkpoint
// events carry the epoch of the run they were scheduled for; a restart
// or checkpoint-induced reschedule bumps the job's epoch, silently
// invalidating stale events.
type event struct {
	time  float64
	seq   int64
	kind  eventKind
	jobID job.ID
	epoch int
	node  int
}

// eventQueue is a deterministic min-heap over (time, seq), sifted
// directly on the event slice. container/heap's any-typed Push/Pop
// would box every record on and off the calendar — two heap
// allocations per event — so the kernel keeps its own sift routines.
// (time, seq) is a total order because seq is unique, so the pop
// sequence is independent of the heap's internal layout; any valid
// heap arrangement yields byte-identical simulations.
type eventQueue struct {
	events  []event
	nextSeq int64
}

func (q *eventQueue) Len() int { return len(q.events) }

func (q *eventQueue) less(i, j int) bool {
	a, b := &q.events[i], &q.events[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push enqueues an event, stamping its sequence number.
func (q *eventQueue) push(e event) {
	e.seq = q.nextSeq
	q.nextSeq++
	q.events = append(q.events, e)
	q.siftUp(len(q.events) - 1)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	top := q.events[0]
	n := len(q.events) - 1
	q.events[0] = q.events[n]
	q.events = q.events[:n]
	if n > 0 {
		q.siftDown(0, n)
	}
	return top
}

// init restores the heap invariant over the whole slice; snapshot
// restore loads the calendar as a sorted array, which is already a
// valid min-heap, but establishing the invariant explicitly keeps
// restore independent of that detail.
func (q *eventQueue) init() {
	n := len(q.events)
	for i := n/2 - 1; i >= 0; i-- {
		q.siftDown(i, n)
	}
}

func (q *eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.events[i], q.events[parent] = q.events[parent], q.events[i]
		i = parent
	}
}

func (q *eventQueue) siftDown(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			return
		}
		q.events[i], q.events[c] = q.events[c], q.events[i]
		i = c
	}
}
