package sim

import (
	"fmt"

	"bgsched/internal/trace"
)

// migrate runs the scheduler's compaction pass after a completion, when
// the scheduler's migration pass is enabled, and applies its moves,
// charging the configured checkpoint-and-restart cost per move. It
// keeps no state: moves are re-derived from the machine at every
// finish.
func (s *Simulator) migrate() error {
	if !s.cfg.Scheduler.Config().Migration {
		return nil
	}
	list := s.runningList()
	if len(list) == 0 {
		return nil
	}
	moves, err := s.cfg.Scheduler.Migrate(s.grid, list)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, mv := range moves {
		r := s.running[list[mv.JobIndex].Job.ID]
		r.part = mv.To
		s.result.Migrations++
		s.met.migrations.Inc()
		if cost := s.cfg.MigrationCost; cost > 0 {
			// The move checkpoints and restarts the job: completion
			// slips and the pause produces no work. The pending finish
			// event is reissued under a fresh epoch.
			p := s.progress[r.job.ID]
			r.overheadSoFar += cost
			r.finishTime += cost
			r.expFinish += cost
			r.epoch = p.nextEpoch
			p.nextEpoch++
			s.k.push(event{time: r.finishTime, kind: evFinish, jobID: r.job.ID, epoch: r.epoch})
		}
		s.logEvent("migrate", r.job.ID, 0, &mv.To)
		if s.cfg.Trace != nil {
			p := s.progress[r.job.ID]
			p.lastSeq = s.traceJob("migrate", r.job.ID, s.lastFinishSeq,
				trace.F("to", mv.To.String()), trace.Num("cost", s.cfg.MigrationCost))
		}
	}
	return nil
}
