package sim

import (
	"fmt"

	"bgsched/internal/job"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
)

// Failures: transient node faults, job kills, and optional downtime.
// A failure-trace event kills the failed node's running job (if any),
// which is requeued at its original FCFS position; when a downtime is
// configured the node is held out of service until a recovery event
// returns it. None of this keeps state of its own: the undelivered
// trace lives in the calendar, downtime holds in the occupancy map
// (downOwner entries) with their recoveries queued as evNodeUp events.

func (s *Simulator) handleFailure(e event) error {
	if s.pending == 0 {
		return nil
	}
	s.result.FailureEvents++
	s.met.failures.Inc()
	owner := s.grid.OwnerAt(e.node)
	s.logEvent("failure", job.ID(max(owner, 0)), e.node, nil)
	var failSeq uint64
	if s.cfg.Trace != nil { // guard: the variadic fields allocate
		failSeq = s.traceSim("failure", trace.Fint("node", int64(e.node)))
	}
	if owner == downOwner {
		return nil // node already held down; the failure is absorbed
	}
	if owner > 0 {
		if err := s.kill(job.ID(owner), failSeq); err != nil {
			return err
		}
	}
	if s.cfg.Downtime > 0 && s.grid.NodeFree(e.node) {
		p := torus.Partition{Base: s.cfg.Geometry.CoordOf(e.node), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
		if err := s.grid.Allocate(p, downOwner); err != nil {
			return fmt.Errorf("sim: downtime hold: %w", err)
		}
		s.k.push(event{time: s.k.now + s.cfg.Downtime, kind: evNodeUp, node: e.node})
	}
	if owner > 0 || s.cfg.Downtime > 0 {
		if err := s.schedule(); err != nil {
			return err
		}
	}
	return s.observe()
}

// kill terminates the run of a job hit by a failure and requeues it.
// cause is the trace sequence of the failure record that delivered the
// fault, linking the kill (and the requeue behind it) to its origin.
func (s *Simulator) kill(id job.ID, cause uint64) error {
	r, ok := s.running[id]
	if !ok {
		return fmt.Errorf("sim: failure killed job %d which is not running", id)
	}
	s.result.JobKills++
	s.nKills++
	s.met.kills.Inc()
	s.met.restarts.Inc()
	if err := s.grid.Release(r.part, int64(id)); err != nil {
		return fmt.Errorf("sim: kill: %w", err)
	}
	p := s.progress[id]
	// Occupancy spent in this run that produced no retained work:
	// everything except the checkpointed progress gained in this run.
	gained := p.savedWork - r.savedAtStart
	wasted := s.k.now - r.start - gained
	if wasted < 0 {
		wasted = 0
	}
	p.lostWork += float64(r.part.Size()) * wasted
	p.restarts++
	s.logEvent("kill", id, 0, &r.part)
	if s.cfg.Trace != nil {
		killSeq := s.traceJob("kill", id, cause,
			trace.F("partition", r.part.String()),
			trace.Num("lost_work", float64(r.part.Size())*wasted))
		p.lastSeq = s.traceJob("requeue", id, killSeq)
	}
	// Removing the run state invalidates this run's pending finish and
	// checkpoint events: their epoch can never match a future run.
	delete(s.running, id)
	s.queue.Push(r.job) // original arrival time: regains FCFS priority
	s.runFree = append(s.runFree, r)
	return nil
}

func (s *Simulator) handleNodeUp(e event) error {
	p := torus.Partition{Base: s.cfg.Geometry.CoordOf(e.node), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	if err := s.grid.Release(p, downOwner); err != nil {
		return fmt.Errorf("sim: node up: %w", err)
	}
	s.logEvent("nodeup", 0, e.node, nil)
	if s.cfg.Trace != nil {
		s.traceSim("nodeup", trace.Fint("node", int64(e.node)))
	}
	if err := s.schedule(); err != nil {
		return err
	}
	return s.observe()
}
