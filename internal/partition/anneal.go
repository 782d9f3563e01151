package partition

import (
	"math"

	"bgsched/internal/torus"
)

// Placer is the optional placement-search capability of a Finder: given
// the candidate set FreeOfSize just returned for gr, pick the index of
// the candidate the finder wants the scheduler to prefer. The scheduler
// detects it by type assertion and moves the winner to the front of the
// candidate slice, so the placement policies (which all tie-break
// toward the first candidate) resolve ties in the placer's favor —
// the legal result set is untouched, only the choice among equals
// changes.
type Placer interface {
	Place(gr *torus.Grid, cands []torus.Partition) int
}

// AnnealFinder is the fourth finder algorithm: candidate enumeration is
// delegated to an embedded ShapeFinder (so the returned set is
// byte-identical to every other finder, and the differential oracle
// holds), while placement among those candidates is a seeded
// simulated-annealing search for the minimal PlacementScore, per Lan et
// al.'s stochastic topology-aware allocation.
//
// Determinism: the annealing RNG is reseeded on every Place call from
// (Seed, grid occupancy hash, candidate count) — a pure splitmix64
// stream with no process state — so the chosen placement is
// byte-reproducible for a given machine state regardless of call
// interleaving, snapshot/restore, or parallelism.
type AnnealFinder struct {
	inner ShapeFinder
	seed  int64
}

// annealSteps bounds the annealing walk per placement; it comfortably
// covers the paper's 4x4x8 candidate sets.
const annealSteps = 48

// NewAnnealFinder builds the annealing finder. seed steers the
// stochastic placement search (same seed = same placements).
func NewAnnealFinder(seed int64) *AnnealFinder {
	return &AnnealFinder{seed: seed}
}

// Name identifies the algorithm.
func (f *AnnealFinder) Name() string { return "anneal" }

// Seed returns the placement-search seed the finder was built with.
func (f *AnnealFinder) Seed() int64 { return f.seed }

// FreeOfSize returns every free partition of exactly size nodes —
// delegated unchanged to the embedded shape finder, so the set, order
// and canonicalisation are identical to every other finder's.
func (f *AnnealFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	return f.inner.FreeOfSize(gr, size)
}

// FreeOfSizeInto implements BufferedFinder by delegation, so the
// scheduler's reusable-buffer fast path works under annealing too.
func (f *AnnealFinder) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	return f.inner.FreeOfSizeInto(gr, size, buf)
}

// annealRNG is a splitmix64 stream: deterministic, allocation-free,
// and pure in its seed, so placements never depend on process state.
type annealRNG struct{ state uint64 }

func (r *annealRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1) with 53 random bits.
func (r *annealRNG) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n) for n > 0.
func (r *annealRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Place runs the simulated-annealing search over the candidate set and
// returns the index of the best-scoring candidate visited. Scores are
// computed lazily and memoized, so a short walk touches only a few
// candidates instead of scoring the whole set. Ties on score resolve to
// the lowest index (the finders' canonical order), keeping the result
// independent of visit order.
func (f *AnnealFinder) Place(gr *torus.Grid, cands []torus.Partition) int {
	n := len(cands)
	if n <= 1 {
		return 0
	}
	scores := make([]float64, n)
	seen := make([]bool, n)
	score := func(i int) float64 {
		if !seen[i] {
			scores[i] = PlacementScore(gr, cands[i])
			seen[i] = true
		}
		return scores[i]
	}
	rng := annealRNG{state: uint64(f.seed) ^ gr.OccupancyHash() ^ (uint64(n) * 0xd6e8feb86659fd93)}
	cur, best := 0, 0
	curScore := score(0)
	bestScore := curScore
	// Geometric cooling from a temperature on the order of the score
	// scale, so early moves explore and late moves only descend.
	temp := 1 + bestScore
	const cooling = 0.92
	for s := 0; s < annealSteps; s++ {
		next := rng.intn(n)
		nextScore := score(next)
		delta := nextScore - curScore
		if delta <= 0 || rng.float64() < math.Exp(-delta/temp) {
			cur, curScore = next, nextScore
			if curScore < bestScore || (curScore == bestScore && cur < best) {
				best, bestScore = cur, curScore
			}
		}
		temp *= cooling
	}
	return best
}
