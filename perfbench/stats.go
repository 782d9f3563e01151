package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"bgsched/internal/sim"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is not modified. 0 for an empty sample (a
// class whose every request failed), as ratio gives 0 for no work.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest hashes values by their %v rendering, which prints every
// float64 with the digits needed to round-trip it exactly.
func digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resultDigest identifies a simulation's outputs: the summary, every
// job outcome and the run's counts.
func resultDigest(r sim.Result) string {
	return digest(r.Summary, r.Outcomes, r.FailureEvents, r.JobKills, r.Migrations,
		r.Checkpoints, r.Backfills, r.ContentionCharges, r.DilationSeconds, r.EventsDispatched)
}

// liveHeapMB forces collection and returns the heap still in use, in
// MB. Two cycles also empty the sync.Pools, which survive one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// medianSetup runs setup at least sc.setupReps times and for at least
// sc.setupMin, and returns the median CPU time it took, keeping the
// last setup's product; earlier products are torn down. Collection is
// paused during each repetition and forced before it, so a repetition
// times its own work and not the collector's pacing: with collection
// running, one fig6 cold start took 7 to 18 ms within a single
// process, and paused, 3.6 to 4.5 ms. A cancelled ctx stops it before
// the next repetition.
func medianSetup[T any](ctx context.Context, sc scale, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for start := time.Now(); len(times) < sc.setupReps || time.Since(start) < sc.setupMin; {
		if len(times) > 0 && teardown != nil {
			teardown(last)
		}
		if err := ctx.Err(); err != nil {
			return last, 0, err
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		c0 := cpuTime()
		v, err := setup()
		spent := cpuTime() - c0
		debug.SetGCPercent(gc)
		if err != nil {
			return last, 0, err
		}
		times = append(times, spent.Seconds())
		last = v
	}
	return last, quantile(times, 0.5), nil
}
