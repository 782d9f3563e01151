package predict

import (
	"fmt"
	"math"

	"bgsched/internal/failure"
)

// Learned is a statistical failure predictor in the spirit of the
// event-prediction work the paper builds on (Sahoo et al., KDD 2003):
// it estimates per-node hazard rates from the observed failure history
// and raises them during bursts. Unlike the Balancing and TieBreak
// predictors — which consult the future failure log degraded by a
// quality knob — Learned only ever reads events strictly before the
// query time, so it exhibits genuine false positives and false
// negatives, and its quality is a measured property rather than a
// parameter.
//
// Model: the hazard of node n at time t is the event count over the
// trailing TrainWindow divided by the window, multiplied by BurstBoost
// if the node failed within the trailing BurstWindow (failures cluster;
// a recent failure is the strongest predictor of another one). The
// probability of failure within (t, t+s] is 1 - exp(-hazard*s).
type Learned struct {
	History *failure.Index

	// TrainWindow is the trailing history length used for the base
	// rate, seconds. Typical: one to four weeks.
	TrainWindow float64
	// BurstWindow is the recency window that marks a node as "hot".
	BurstWindow float64
	// BurstBoost multiplies the hazard of a hot node.
	BurstBoost float64
	// MachineBoost multiplies every node's hazard while any node has
	// failed within BurstWindow: real failure logs (and this
	// repository's generator) cluster simultaneous events across
	// different nodes, so one node's failure raises everyone's
	// short-term risk.
	MachineBoost float64
	// PriorRate is the machine-wide failure rate (per node per second)
	// assumed before any local evidence; it keeps cold nodes from
	// looking perfectly safe.
	PriorRate float64
	// Threshold converts probabilities into the boolean partition
	// oracle: a node with window failure probability above it counts
	// as "will fail".
	Threshold float64
}

// NewLearned returns a Learned predictor with sensible defaults for a
// machine-day-scale failure density.
func NewLearned(history *failure.Index) *Learned {
	return &Learned{
		History:      history,
		TrainWindow:  14 * 24 * 3600,
		BurstWindow:  2 * 3600,
		BurstBoost:   50,
		MachineBoost: 8,
		PriorRate:    1.0 / (128 * 4 * 24 * 3600), // ~1 failure per 4 machine-days
		Threshold:    0.25,
	}
}

// Validate reports configuration errors.
func (l *Learned) Validate() error {
	switch {
	case l.History == nil:
		return fmt.Errorf("predict: Learned.History is required")
	case l.TrainWindow <= 0:
		return fmt.Errorf("predict: TrainWindow = %g", l.TrainWindow)
	case l.BurstWindow < 0 || l.BurstBoost < 1:
		return fmt.Errorf("predict: burst config %g/%g", l.BurstWindow, l.BurstBoost)
	case l.MachineBoost < 1:
		return fmt.Errorf("predict: MachineBoost = %g, want >= 1", l.MachineBoost)
	case l.PriorRate < 0:
		return fmt.Errorf("predict: PriorRate = %g", l.PriorRate)
	case l.Threshold < 0 || l.Threshold > 1:
		return fmt.Errorf("predict: Threshold = %g", l.Threshold)
	}
	return nil
}

// hazard estimates the failure rate (per second) of node at time now,
// using only events strictly before now.
func (l *Learned) hazard(node int, now float64) float64 {
	lo := now - l.TrainWindow
	if lo < 0 {
		lo = 0
	}
	window := now - lo
	rate := l.PriorRate
	if window > 0 {
		// CountWithin is (after, until]; use until just below now so
		// an event exactly at the query instant is excluded.
		n := l.History.CountWithin(node, lo, math.Nextafter(now, 0))
		rate += float64(n) / window
	}
	if l.BurstWindow > 0 {
		if l.History.HasFailureWithin(node, now-l.BurstWindow, math.Nextafter(now, 0)) {
			rate *= l.BurstBoost
		} else if l.MachineBoost > 1 && l.machineHot(now) {
			rate *= l.MachineBoost
		}
	}
	return rate
}

// machineHot reports whether any node failed within the trailing
// BurstWindow, over the same window as hazard's per-node burst test,
// with one search of the index's time-ordered events.
func (l *Learned) machineHot(now float64) bool {
	return l.History.AnyWithin(now-l.BurstWindow, math.Nextafter(now, 0))
}

// NodeFailProb implements NodeProber: P(node fails in (now, until]).
func (l *Learned) NodeFailProb(node int, now, until float64) float64 {
	if until <= now {
		return 0
	}
	return 1 - math.Exp(-l.hazard(node, now)*(until-now))
}

// NodeWillFail answers the boolean per-node query via Threshold.
func (l *Learned) NodeWillFail(node int, now, until float64) bool {
	return l.NodeFailProb(node, now, until) > l.Threshold
}

// PartitionWillFail implements PartitionOracle.
func (l *Learned) PartitionWillFail(nodes []int, now, until float64) bool {
	for _, n := range nodes {
		if l.NodeWillFail(n, now, until) {
			return true
		}
	}
	return false
}

var (
	_ NodeProber      = (*Learned)(nil)
	_ PartitionOracle = (*Learned)(nil)
)
