package sim

import (
	"encoding/json"
	"fmt"

	"bgsched/internal/checkpoint"
	"bgsched/internal/trace"
)

// Checkpointing: the Section 8 extension. Checkpoint (and policy
// re-poll) events are scheduled for running jobs, each checkpoint
// charges its overhead and banks saved work, and a job restarted from
// a checkpoint pays the restore penalty. A nil Config.Checkpoint keeps
// all of it a no-op, matching the paper's main runs.

// checkpointState delegates to the policy when it carries mutable
// per-run state (checkpoint.Stateful — the prediction-triggered
// policy's per-job trigger throttle). Banked saved work lives in
// jobProgress and pending checkpoints in the calendar, so stateless
// policies serialize nothing (nil).
func (s *Simulator) checkpointState() (json.RawMessage, error) {
	if s.cfg.Checkpoint == nil {
		return nil, nil
	}
	sp, ok := s.cfg.Checkpoint.Policy.(checkpoint.Stateful)
	if !ok {
		return nil, nil
	}
	b, err := sp.StateJSON()
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint snapshot: %w", err)
	}
	return b, nil
}

// restoreCheckpoint feeds captured policy state back. A nil payload
// means the snapshot recorded none. A branch that swapped to a
// stateless policy (or disabled checkpointing) drops the payload: the
// new policy starts from its own zero state, which is the defined
// branch semantics.
func (s *Simulator) restoreCheckpoint(data json.RawMessage) error {
	if data == nil || s.cfg.Checkpoint == nil {
		return nil
	}
	sp, ok := s.cfg.Checkpoint.Policy.(checkpoint.Stateful)
	if !ok {
		return nil
	}
	if err := sp.RestoreJSON(data); err != nil {
		return fmt.Errorf("sim: checkpoint restore: %w", err)
	}
	return nil
}

func (s *Simulator) handleCheckpoint(e event) error {
	r, ok := s.running[e.jobID]
	if !ok || r.epoch != e.epoch || s.cfg.Checkpoint == nil {
		return nil // stale
	}
	p := s.progress[e.jobID]
	// Work completed in this run up to now (checkpoint overheads and
	// the restart penalty do not produce work).
	done := (s.k.now - r.start) - r.overheadSoFar - r.restartPenaltyPaid
	if done < 0 {
		done = 0
	}
	p.savedWork = r.savedAtStart + done
	if p.savedWork > r.job.Actual {
		p.savedWork = r.job.Actual
	}
	s.result.Checkpoints++
	s.met.checkpoints.Inc()
	s.logEvent("checkpoint", e.jobID, 0, &r.part)
	if s.cfg.Trace != nil {
		p.lastSeq = s.traceJob("checkpoint", e.jobID, p.lastSeq,
			trace.Num("saved_work", p.savedWork))
	}

	// The checkpoint itself costs Overhead: completion slips, and the
	// finish event is reissued under a fresh epoch.
	over := s.cfg.Checkpoint.Overhead
	r.overheadSoFar += over
	r.finishTime += over
	r.expFinish += over
	r.epoch = p.nextEpoch
	p.nextEpoch++
	s.k.push(event{time: r.finishTime, kind: evFinish, jobID: e.jobID, epoch: r.epoch})
	s.scheduleCheckpoint(r)
	return nil
}

// handleCkptPoll re-consults the checkpoint policy for a running job.
func (s *Simulator) handleCkptPoll(e event) error {
	r, ok := s.running[e.jobID]
	if !ok || r.epoch != e.epoch || s.cfg.Checkpoint == nil {
		return nil // stale
	}
	s.scheduleCheckpoint(r)
	return nil
}

// scheduleCheckpoint consults the policy for the job's next checkpoint
// and enqueues it. If the policy has nothing scheduled and a poll
// interval is configured, a re-poll is enqueued instead so
// prediction-triggered policies see the sliding horizon.
func (s *Simulator) scheduleCheckpoint(r *runState) {
	c := s.cfg.Checkpoint
	if c == nil {
		return
	}
	nodes := s.cfg.Geometry.Nodes(r.part)
	if t, ok := c.Policy.Next(int64(r.job.ID), s.k.now, r.expFinish, nodes); ok {
		s.k.push(event{time: t, kind: evCheckpoint, jobID: r.job.ID, epoch: r.epoch})
		return
	}
	if poll := c.PollInterval; poll > 0 && s.k.now+poll < r.expFinish {
		s.k.push(event{time: s.k.now + poll, kind: evCkptPoll, jobID: r.job.ID, epoch: r.epoch})
	}
}

// restartPenalty is the restore cost charged at the front of a run:
// only a run that resumes from banked saved work pays it.
func (s *Simulator) restartPenalty(p *jobProgress) float64 {
	if s.cfg.Checkpoint == nil || p.savedWork <= 0 {
		return 0
	}
	return s.cfg.Checkpoint.RestartPenalty
}
