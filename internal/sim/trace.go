package sim

import (
	"bgsched/internal/job"
	"bgsched/internal/trace"
)

// Causal trace emission. Every job carries its lifecycle as a chain of
// trace records — submit → allocate → start → [checkpoint | kill →
// requeue]* → finish — linked through jobProgress.lastSeq, so the chain
// behind any outcome can be walked backwards from the finish record.
// Cross-cutting events (failures, node recoveries) are "sim"-category
// records; a kill's Cause points at the failure record that delivered
// the fault rather than the job's own previous record, which is exactly
// the paper's causal story (a fault cascades into a kill, a requeue,
// and lost work).
//
// All records carry simulated time only, so for a fixed configuration
// the emitted bytes are identical whatever the build cache state or
// partition finder — the golden-trace test pins this.

// traceJob emits one lifecycle record for a job and returns its
// sequence number for chaining. The nil check keeps the untraced hot
// path to a single branch, before any field construction.
func (s *Simulator) traceJob(name string, id job.ID, cause uint64, fields ...trace.Field) uint64 {
	if s.cfg.Trace == nil {
		return 0
	}
	return s.cfg.Trace.Emit(trace.Rec{
		Cat: "job", Name: name, T: s.k.now, Job: int64(id), Cause: cause, Fields: fields,
	})
}

// traceSim emits one machine-level record (failure delivery, node
// recovery) not attributed to a job.
func (s *Simulator) traceSim(name string, fields ...trace.Field) uint64 {
	if s.cfg.Trace == nil {
		return 0
	}
	return s.cfg.Trace.Emit(trace.Rec{Cat: "sim", Name: name, T: s.k.now, Fields: fields})
}

// recordFlight adapts one kernel dispatch into a flight-recorder entry.
func (s *Simulator) recordFlight(e event) {
	s.cfg.Flight.Record(trace.FlightEvent{
		T:     e.time,
		Seq:   e.seq,
		Kind:  e.kind.String(),
		Job:   int64(e.jobID),
		Epoch: e.epoch,
		Node:  e.node,
	})
}
