package build

import (
	"errors"
	"sync"
	"unsafe"

	"bgsched/internal/failure"
	"bgsched/internal/job"
	"bgsched/internal/lru"
	"bgsched/internal/workload"
)

// DefaultCacheCapacity bounds the process-wide artifact cache. Entries
// are whole stage artifacts (a synthesized workload log, a job slice, a
// failure trace or index); at the default sweep scale each is tens of
// kilobytes, so the default bound keeps the cache well under a few
// dozen megabytes while comfortably covering every distinct
// (workload, seed, load, failure) combination of a full figure sweep.
const DefaultCacheCapacity = 256

// DefaultCacheBytes bounds the bytes the artifact cache retains, as
// artifactBytes weighs them. Near the failure-count limit one build's
// trace and index weigh about 27 MiB, so the entry bound alone would
// let a few dozen such requests hold gigabytes.
const DefaultCacheBytes = 256 << 20

// Cache is a bounded, self-locking LRU of immutable build artifacts
// keyed by stage-qualified content hashes. Concurrent misses on the
// same key are coalesced: one caller computes, the rest block and share
// the result, so a parallel sweep warming up does not synthesize the
// same workload once per worker.
//
// Values stored in the cache are shared across goroutines and runs;
// they must never be mutated after insertion. Stages whose artifacts
// are mutated downstream (job slices) store a master copy, and every
// build clones it.
type Cache struct {
	mu       sync.Mutex
	items    *lru.Cache[string, any]
	inflight map[string]*flight
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache returns an empty cache bounded to capacity entries and to
// DefaultCacheBytes; capacity < 1 falls back to DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	return newCache(capacity, DefaultCacheBytes)
}

// newCache is NewCache with the byte bound given.
func newCache(capacity int, maxBytes int64) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		items:    lru.NewSized[string, any](capacity, maxBytes, artifactBytes),
		inflight: make(map[string]*flight),
	}
}

// artifactBytes weighs an artifact by the lengths of what it holds: the
// records of a workload log or a job slice, the events of a failure
// trace and the arrays of a failure index. Other values weigh nothing.
func artifactBytes(v any) int64 {
	switch a := v.(type) {
	case *workload.Log:
		return int64(len(a.Jobs)) * int64(unsafe.Sizeof(workload.TraceJob{}))
	case []*job.Job:
		return int64(len(a)) * int64(unsafe.Sizeof(job.Job{})+unsafe.Sizeof(&job.Job{}))
	case failure.Trace:
		return int64(len(a)) * int64(unsafe.Sizeof(failure.Event{}))
	case *failure.Index:
		return a.Bytes()
	}
	return 0
}

// Shared is the process-wide artifact cache: experiments.RunContext,
// the sweep engine and the service dispatcher all build through it, so
// sweep points and HTTP requests that agree on a sub-config reuse each
// other's artifacts.
var Shared = NewCache(DefaultCacheCapacity)

// errComputePanicked is what coalesced waiters receive when the
// computation they waited on panicked.
var errComputePanicked = errors.New("build: artifact computation panicked")

// GetOrCompute returns the artifact for key, computing and inserting it
// on a miss. hit reports whether the value came from the cache (a
// coalesced wait on another caller's in-flight computation counts as a
// hit: the work was shared, not repeated). Compute errors are returned
// to every coalesced caller and nothing is inserted. A panicking
// compute finishes its flight the same way, with errComputePanicked,
// before the panic continues, so a later call computes afresh.
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
	f := &flight{done: make(chan struct{}), err: errComputePanicked}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.items.Add(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()

	f.val, f.err = compute() // a panic skips the assignment, leaving errComputePanicked
	return f.val, false, f.err
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items.Len()
}

// Purge drops every cached artifact (in-flight computations are
// unaffected and will insert their results afterwards).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items.Purge()
}
