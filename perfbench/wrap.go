package main

import (
	"time"

	"bgsched/internal/core"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/torus"
)

// The wrappers below time and count calls into the scheduler's policy,
// finder and predictor from outside those layers. Each run gets fresh
// wrappers and the simulator's event loop is single-threaded, so the
// counters need no synchronisation.

// finderCount tallies the calls made through a wrapped finder.
type finderCount struct {
	calls, cands int64
	dur          time.Duration // FreeOfSize, FreeOfSizeInto and Place
}

// countedFinder is the plain-Finder wrapper.
type countedFinder struct {
	inner partition.Finder
	n     *finderCount
}

func (f countedFinder) Name() string { return f.inner.Name() }

func (f countedFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	t0 := time.Now()
	out := f.inner.FreeOfSize(gr, size)
	f.n.dur += time.Since(t0)
	f.n.calls++
	f.n.cands += int64(len(out))
	return out
}

// bufferedFinder adds partition.BufferedFinder.
type bufferedFinder struct {
	countedFinder
	bf partition.BufferedFinder
}

func (f bufferedFinder) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	t0 := time.Now()
	out := f.bf.FreeOfSizeInto(gr, size, buf)
	f.n.dur += time.Since(t0)
	f.n.calls++
	f.n.cands += int64(len(out))
	return out
}

// placingFinder adds partition.Placer. Every registered Placer is
// also a BufferedFinder, so no wrapper adds Placer alone.
type placingFinder struct {
	bufferedFinder
	pl partition.Placer
}

func (f placingFinder) Place(gr *torus.Grid, cands []torus.Partition) int {
	t0 := time.Now()
	k := f.pl.Place(gr, cands)
	f.n.dur += time.Since(t0)
	return k
}

// wrapFinder returns f behind a counting wrapper that implements
// partition.BufferedFinder and partition.Placer exactly when f does,
// so the scheduler, which detects both by type assertion, takes the
// same code paths as it would on f itself. It panics on a Placer that
// is not a BufferedFinder, a combination no registered finder has.
func wrapFinder(f partition.Finder, n *finderCount) partition.Finder {
	base := countedFinder{inner: f, n: n}
	bf, buffered := f.(partition.BufferedFinder)
	pl, placer := f.(partition.Placer)
	switch {
	case buffered && placer:
		return placingFinder{bufferedFinder{base, bf}, pl}
	case buffered:
		return bufferedFinder{base, bf}
	case placer:
		panic("perfbench: finder " + f.Name() + " is a Placer but not a BufferedFinder")
	}
	return base
}

// countedPolicy times core.Policy.Choose and remembers the scheduler's
// MFP cache, whose hit counts it reads after the run.
type countedPolicy struct {
	inner        core.Policy
	calls, cands int64
	dur          time.Duration
	mfp          *partition.MFPCache
}

func (p *countedPolicy) Name() string { return p.inner.Name() }

func (p *countedPolicy) Choose(ctx *core.PlacementContext, cands []torus.Partition) (int, error) {
	p.mfp = ctx.MFP
	t0 := time.Now()
	i, err := p.inner.Choose(ctx, cands)
	p.dur += time.Since(t0)
	p.calls++
	p.cands += int64(len(cands))
	return i, err
}

// countedProber counts the balancing policy's node-probability probes.
type countedProber struct {
	inner predict.NodeProber
	n     *int64
}

func (p countedProber) NodeFailProb(node int, now, until float64) float64 {
	*p.n++
	return p.inner.NodeFailProb(node, now, until)
}

// countedOracle counts the tie-breaking policy's oracle queries.
type countedOracle struct {
	inner predict.PartitionOracle
	n     *int64
}

func (o countedOracle) PartitionWillFail(nodes []int, now, until float64) bool {
	*o.n++
	return o.inner.PartitionWillFail(nodes, now, until)
}

// wrapPolicy returns p behind a timing wrapper, with the predictor of
// a balancing or tie-breaking policy replaced by a counting one.
func wrapPolicy(p core.Policy, probes *int64) *countedPolicy {
	switch pp := p.(type) {
	case *core.Balancing:
		c := *pp
		c.Prober = countedProber{inner: pp.Prober, n: probes}
		p = &c
	case *core.TieBreak:
		c := *pp
		c.Oracle = countedOracle{inner: pp.Oracle, n: probes}
		p = &c
	}
	return &countedPolicy{inner: p}
}
