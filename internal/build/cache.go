package build

import (
	"sync"

	"bgsched/internal/job"
	"bgsched/internal/lru"
)

// DefaultCacheCapacity bounds the process-wide artifact cache. Entries
// are whole stage artifacts (a synthesized workload log, a job slice, a
// failure trace or index); at the default sweep scale each is tens of
// kilobytes, so the default bound keeps the cache well under a few
// dozen megabytes while comfortably covering every distinct
// (workload, seed, load, failure) combination of a full figure sweep.
const DefaultCacheCapacity = 256

// Cache is a bounded, self-locking LRU of immutable build artifacts
// keyed by stage-qualified content hashes. Concurrent misses on the
// same key are coalesced: one caller computes, the rest block and share
// the result, so a parallel sweep warming up does not synthesize the
// same workload once per worker.
//
// Values stored in the cache are shared across goroutines and runs;
// they must never be mutated after insertion. Stages whose artifacts
// are mutated downstream (job slices) store a master copy and hand out
// clones.
type Cache struct {
	mu       sync.Mutex
	items    *lru.Cache[string, any]
	inflight map[string]*flight
	// jobPool recycles run-private job-slice clones, keyed by the jobs
	// stage key. A sweep rebuilding the same workload point reuses the
	// previous run's clone (re-initialised from the cached master)
	// instead of allocating a fresh slice of job structs per run.
	jobPool map[string][][]*job.Job
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns an empty cache bounded to capacity entries;
// capacity < 1 falls back to DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		items:    lru.New[string, any](capacity),
		inflight: make(map[string]*flight),
		jobPool:  make(map[string][][]*job.Job),
	}
}

// Shared is the process-wide artifact cache: experiments.RunContext,
// the sweep engine and the service dispatcher all build through it, so
// sweep points and HTTP requests that agree on a sub-config reuse each
// other's artifacts.
var Shared = NewCache(DefaultCacheCapacity)

// GetOrCompute returns the artifact for key, computing and inserting it
// on a miss. hit reports whether the value came from the cache (a
// coalesced wait on another caller's in-flight computation counts as a
// hit: the work was shared, not repeated). Compute errors are returned
// to every coalesced caller and nothing is inserted.
func (c *Cache) GetOrCompute(key string, compute func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if v, ok := c.items.Get(key); ok {
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.items.Add(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items.Len()
}

// Purge drops every cached artifact and pooled job clone (in-flight
// computations are unaffected and will insert their results
// afterwards).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items.Purge()
	c.jobPool = make(map[string][][]*job.Job)
}

// maxPooledClones bounds the recycled clones kept per jobs key: enough
// for a parallel sweep's worker fleet, small enough that an engine
// cycling through many points cannot hoard memory.
const maxPooledClones = 16

// acquireJobs returns a run-private clone of the cached master slice,
// recycling a released clone when one is pooled under key. A recycled
// clone's structs are re-initialised from the master wholesale, so
// mutations by the previous run's simulator cannot leak into the next.
func (c *Cache) acquireJobs(key string, master []*job.Job) []*job.Job {
	var out []*job.Job
	c.mu.Lock()
	if pool := c.jobPool[key]; len(pool) > 0 {
		out = pool[len(pool)-1]
		c.jobPool[key] = pool[:len(pool)-1]
	}
	c.mu.Unlock()
	if len(out) != len(master) {
		return cloneJobs(master)
	}
	for i, j := range master {
		*out[i] = *j
	}
	return out
}

// releaseJobs returns a clone to the pool for key. Pool depth is
// bounded; overflow clones are simply dropped for the GC.
func (c *Cache) releaseJobs(key string, jobs []*job.Job) {
	if key == "" || len(jobs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.jobPool[key]) < maxPooledClones {
		c.jobPool[key] = append(c.jobPool[key], jobs)
	}
}
