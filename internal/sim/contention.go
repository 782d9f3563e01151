package sim

import (
	"encoding/json"
	"fmt"
	"sort"

	"bgsched/internal/job"
	"bgsched/internal/trace"
)

// ---------------------------------------------------------------------
// Network contention: runtime dilation from shared torus lines.
//
// When a job starts, it and every co-resident neighbor whose partition
// shares lines with it are each dilated by the model's per-line charge
// (internal/contention). The dilation extends the affected run's
// completion via the same epoch-reissue idiom checkpoint overheads use,
// so killed or rescheduled runs never see stale finish events. A nil
// Config.Contention keeps all of it a no-op, so the paper's main runs
// are untouched.

// contentionState is the model's snapshot payload: the aggregate
// counters (Result.ContentionCharges, Result.DilationSeconds) plus the
// per-job dilation ledger, jobs sorted so the canonical snapshot
// encoding is stable.
type contentionState struct {
	Charges int                `json:"charges"`
	Total   float64            `json:"total"`
	Jobs    []contentionJobRow `json:"jobs,omitempty"`
}

type contentionJobRow struct {
	Job      job.ID  `json:"job"`
	Dilation float64 `json:"dilation"`
}

// contentionState serializes the dilation ledger. A disabled model
// keeps no state (nil), so runs without contention produce the exact
// snapshot bytes they did before the model existed.
func (s *Simulator) contentionState() (json.RawMessage, error) {
	if s.cfg.Contention == nil {
		return nil, nil
	}
	st := contentionState{Charges: s.result.ContentionCharges, Total: s.result.DilationSeconds}
	for id, d := range s.dilation {
		st.Jobs = append(st.Jobs, contentionJobRow{Job: id, Dilation: d})
	}
	sort.Slice(st.Jobs, func(i, j int) bool { return st.Jobs[i].Job < st.Jobs[j].Job })
	b, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("sim: contention snapshot: %w", err)
	}
	return b, nil
}

// restoreContention feeds a captured ledger back, its aggregates into
// the restored Result. A nil payload means the snapshot recorded none.
// A branch that disabled contention drops the payload (defined branch
// semantics: the model starts from its own zero state).
func (s *Simulator) restoreContention(data json.RawMessage) error {
	if data == nil || s.cfg.Contention == nil {
		return nil
	}
	var st contentionState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("sim: contention restore: %w", err)
	}
	if st.Charges < 0 || st.Total < 0 {
		return fmt.Errorf("sim: contention restore: negative ledger (charges %d, total %g)", st.Charges, st.Total)
	}
	s.dilation = make(map[job.ID]float64, len(st.Jobs))
	for _, row := range st.Jobs {
		s.dilation[row.Job] = row.Dilation
	}
	s.result.ContentionCharges = st.Charges
	s.result.DilationSeconds = st.Total
	return nil
}

// contend charges the contention of a new co-residency: the starter
// pays for every line it shares with each running neighbor, and each
// such neighbor pays for the lines the starter now contends on.
// Neighbors are visited in job-id order, so the charge sequence — and
// with it the event calendar and the causal trace — is deterministic.
func (s *Simulator) contend(r *runState) {
	if s.cfg.Contention == nil {
		return
	}
	ids := make([]job.ID, 0, len(s.running))
	for id := range s.running {
		if id != r.job.ID {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// The starter's own chain record ("start") is the cause of every
	// dilation this co-residency inflicts.
	startSeq := s.progress[r.job.ID].lastSeq
	selfCharge := 0.0
	for _, id := range ids {
		n := s.running[id]
		charge := s.cfg.Contention.Charge(s.cfg.Geometry, r.part, n.part)
		if charge <= 0 {
			continue
		}
		selfCharge += charge
		s.dilate(n, charge, startSeq)
	}
	if selfCharge > 0 {
		s.dilate(r, selfCharge, startSeq)
	}
}

// dilate extends one running job's completion by charge seconds. The
// dilation is pure overhead — it produces no work — so it folds into
// overheadSoFar exactly like a checkpoint overhead, keeping the saved-
// work accounting intact, and the pending finish event is reissued
// under a fresh epoch.
func (s *Simulator) dilate(r *runState, charge float64, cause uint64) {
	p := s.progress[r.job.ID]
	r.overheadSoFar += charge
	r.finishTime += charge
	r.expFinish += charge
	r.epoch = p.nextEpoch
	p.nextEpoch++
	s.k.push(event{time: r.finishTime, kind: evFinish, jobID: r.job.ID, epoch: r.epoch})

	if s.dilation == nil {
		s.dilation = make(map[job.ID]float64)
	}
	s.dilation[r.job.ID] += charge
	s.result.ContentionCharges++
	s.result.DilationSeconds += charge
	s.met.contentions.Inc()
	s.met.dilation.Observe(charge)
	s.logEvent("dilate", r.job.ID, 0, &r.part)
	if s.cfg.Trace != nil {
		p.lastSeq = s.traceJob("dilate", r.job.ID, cause,
			trace.Num("seconds", charge), trace.Fint("epoch", int64(r.epoch)))
	}
}
