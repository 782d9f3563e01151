package core

import (
	"fmt"
	"sort"

	"bgsched/internal/torus"
)

// Migration is one job move produced by the compaction pass.
type Migration struct {
	JobIndex int // index into the running slice passed to Migrate
	From, To torus.Partition
}

// Migrate performs one greedy defragmentation pass in the spirit of
// Krevat's migration: running jobs are considered largest-first, and a
// job is moved when re-placing it strictly increases the machine's
// maximal free partition. In the paper's model migration is free (jobs
// are checkpointed and restarted elsewhere without cost); the simulator
// charges any configured overhead separately.
//
// The grid is updated in place; the returned migrations tell the caller
// how to update its running-job records.
func (s *Scheduler) Migrate(gr *torus.Grid, running []Running) ([]Migration, error) {
	order := make([]int, len(running))
	for i := range order {
		order[i] = i
	}
	// Largest jobs first: moving them frees the most contiguity.
	sort.Slice(order, func(a, b int) bool {
		ja, jb := running[order[a]].Job, running[order[b]].Job
		if ja.AllocSize != jb.AllocSize {
			return ja.AllocSize > jb.AllocSize
		}
		return ja.ID < jb.ID
	})

	var moves []Migration
	parts := make([]torus.Partition, len(running))
	for i, r := range running {
		parts[i] = r.Part
	}
	// Probe-only context: no MFPBefore/MFPPart, so every evaluation runs
	// the real probe (migration compares placements, not a fixed bound),
	// still through the scheduler's MFP cache, whose exact occupancy key
	// follows the Release/Allocate below without invalidation.
	ctx := &PlacementContext{Grid: gr, MFP: s.mfp}
	for _, idx := range order {
		r := running[idx]
		owner := int64(r.Job.ID)
		orig := parts[idx]
		if err := gr.Release(orig, owner); err != nil {
			return moves, fmt.Errorf("core: migrate release: %w", err)
		}
		cands := s.cfg.Finder.FreeOfSize(gr, r.Job.AllocSize)
		bestIdx := -1
		bestMFP, err := mfpAfter(ctx, orig)
		if err != nil {
			return moves, fmt.Errorf("core: migrate probe: %w", err)
		}
		for i, p := range cands {
			if p == orig {
				continue
			}
			after, err := mfpAfter(ctx, p)
			if err != nil {
				return moves, fmt.Errorf("core: migrate probe: %w", err)
			}
			if after > bestMFP {
				bestMFP = after
				bestIdx = i
			}
		}
		target := orig
		if bestIdx >= 0 {
			target = cands[bestIdx]
			moves = append(moves, Migration{JobIndex: idx, From: orig, To: target})
			parts[idx] = target
		}
		if err := gr.Allocate(target, owner); err != nil {
			return moves, fmt.Errorf("core: migrate allocate: %w", err)
		}
	}
	return moves, nil
}
