package sim

import "fmt"

// kernel is the deterministic discrete-event core of the simulator: a
// calendar heap ordered by (time, sequence) — so simultaneous events
// replay in exactly their insertion order — and the simulation clock.
// The kernel knows nothing about jobs, machines or policies;
// Simulator.step dispatches each event it hands out.
type kernel struct {
	queue eventQueue
	now   float64

	// dispatched counts events popped and dispatched since the start of
	// the run. It survives snapshot/restore, so "event seq N" names the
	// same boundary in an uninterrupted run and in any prefix+continue
	// decomposition of it.
	dispatched int64
}

// push enqueues an event; the queue stamps its sequence number, so two
// events at the same timestamp pop in push order.
func (k *kernel) push(e event) { k.queue.push(e) }

// pending returns the number of queued events.
func (k *kernel) pending() int { return k.queue.Len() }

// next pops the earliest event and advances the clock to it. Time must
// be monotone: an event behind the clock aborts the run, since it means
// a mechanism scheduled into the past. An event of no known kind is
// refused before it counts as dispatched.
func (k *kernel) next() (event, error) {
	e := k.queue.pop()
	if e.time < k.now {
		return e, fmt.Errorf("sim: event time went backwards: %g after %g", e.time, k.now)
	}
	k.now = e.time
	if e.kind < 0 || e.kind >= evKindCount {
		return e, fmt.Errorf("sim: unknown event kind %d", int(e.kind))
	}
	k.dispatched++
	return e, nil
}
