package service

import (
	"context"
	"fmt"
	"net/http"

	"bgsched/internal/experiments"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
	"bgsched/internal/trace"
)

// BranchRequest is the POST /v1/runs/{id}/branch payload: replay the
// parent run's world from the event boundary AtSeq under a modified
// policy.
type BranchRequest struct {
	AtSeq  int64              `json:"at_seq"`
	Branch experiments.Branch `json:"branch"`
}

// branchConfig is the canonical config of a branch run. The parent's
// canonical config (not its id) pins the world, so the cache key — and
// therefore result reuse — survives parent-run eviction and restarts.
type branchConfig struct {
	Parent     experiments.RunConfig `json:"parent"`
	ParentID   string                `json:"parent_id"`
	ParentHash string                `json:"parent_hash"`
	AtSeq      int64                 `json:"at_seq"`
	Branch     experiments.Branch    `json:"branch"`
}

// BranchResult is the payload of a completed branch replay.
type BranchResult struct {
	ParentID   string             `json:"parent_id"`
	ParentHash string             `json:"parent_hash"`
	AtSeq      int64              `json:"at_seq"`
	Branch     experiments.Branch `json:"branch"`
	SimResult
}

// maxBranchSnapshots bounds retained parent-prefix snapshots. Snapshots
// are a few hundred KB each; branch grids fan many branches off few
// points, so a small cache captures the reuse.
const maxBranchSnapshots = 8

// handleSubmitBranch accepts a what-if replay of an existing simulation
// run: restore the parent's state at the requested event boundary, swap
// in the branch's policy overrides, and run the rest of the schedule.
func (s *Server) handleSubmitBranch(w http.ResponseWriter, req *http.Request) {
	parent := s.lookup(req.PathValue("id"))
	if parent == nil {
		s.writeErr(w, http.StatusNotFound, "no such run")
		return
	}
	if parent.kind != kindSim {
		s.writeErr(w, http.StatusConflict, "branching requires a simulation run, parent is kind "+parent.kind)
		return
	}
	s.mu.Lock()
	parentCfg, ok := parent.cfg.(experiments.RunConfig)
	parentHash := parent.hash
	s.mu.Unlock()
	if !ok {
		s.writeErr(w, http.StatusConflict, "parent run's configuration is unavailable")
		return
	}
	var br BranchRequest
	if !s.decodeBody(w, req, &br) {
		return
	}
	if br.AtSeq < 1 {
		s.writeErr(w, http.StatusBadRequest, fmt.Sprintf("at_seq must be >= 1, got %d", br.AtSeq))
		return
	}
	// The branch config must be valid stand-alone: apply the overrides
	// and run them through the same gate as a direct submission.
	applied := br.Branch.Apply(parentCfg).Canonical()
	if err := s.validateRunConfig(applied); err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	bc := branchConfig{
		Parent:     parentCfg,
		ParentID:   parent.id,
		ParentHash: parentHash,
		AtSeq:      br.AtSeq,
		Branch:     br.Branch,
	}
	// ParentID is excluded from the hash: two parents with identical
	// canonical configs pin the same world, so their branches are the
	// same computation and must share one cache entry.
	hash := telemetry.ConfigHash(struct {
		Kind       string
		ParentHash string
		AtSeq      int64
		Branch     experiments.Branch
	}{kindBranch, parentHash, br.AtSeq, br.Branch})
	s.submit(w, req, kindBranch, hash, bc)
}

// executeBranch runs one branch replay: obtain the parent-prefix
// snapshot (cached across sibling branches), restore under the branch
// config with the run's output streams wired, and continue to the end
// of the schedule.
func (s *Server) executeBranch(ctx context.Context, r *run) (any, error) {
	bc := r.cfg.(branchConfig)
	key := fmt.Sprintf("%s@%d", bc.ParentHash, bc.AtSeq)
	s.mu.Lock()
	st, ok := s.snapshots.Get(key)
	s.mu.Unlock()
	if ok {
		s.m.branchSnapshotHits.Inc()
	} else {
		s.m.branchSnapshotMisses.Inc()
		// The prefix replays the parent's canonical config with no output
		// streams attached: its event log and trace belong to the parent
		// run, not to this branch. With no writers the captured stream
		// origins (ElogSeq, TraceSeq) are zero, so a branch's own streams
		// are identical whether the snapshot came from cache or not.
		var err error
		st, err = experiments.SnapshotAt(ctx, bc.Parent, bc.AtSeq)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.snapshots.Add(key, st)
		s.mu.Unlock()
	}

	cfg := bc.Branch.Apply(bc.Parent)
	res, err := s.simulate(r, cfg, func(cfg experiments.RunConfig) (sim.Result, error) {
		return experiments.ResumeFromSnapshot(ctx, cfg, st)
	}, trace.F("branch_of", bc.ParentID), trace.Fint("at_seq", bc.AtSeq), trace.F("scheduler", string(cfg.Scheduler)))
	if err != nil {
		return nil, err
	}
	return BranchResult{
		ParentID:   bc.ParentID,
		ParentHash: bc.ParentHash,
		AtSeq:      bc.AtSeq,
		Branch:     bc.Branch,
		SimResult:  res,
	}, nil
}
