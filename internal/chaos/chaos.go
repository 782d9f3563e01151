// Package chaos is a deterministic, seed-driven fault injector for the
// serving path. It answers one question at four seams of the service —
// the HTTP middleware, the run dispatcher, the result cache and the
// state journal — "does a fault land here, and which one?", and it
// answers it reproducibly: every decision is a pure function of
// (seed, site, sequence number), so a soak that failed under
// -chaos-seed N replays the exact same fault schedule under the same
// seed and call counts, regardless of wall-clock timing.
//
// Determinism model: each site owns an independent decision stream.
// Decision k at site s is derived by mixing (seed, s, k) through a
// splitmix64 finisher — no shared PRNG state, no lock contention
// between sites, and concurrent callers at one site race only for the
// sequence number, never for the outcome attached to it. The per-site
// digest (Digest) is an order-independent combination — a wrapping sum
// — of one hash per decision of (sequence number, decision
// fingerprint), so two soaks with the same seed and the same per-site
// decision counts produce the same digest however their callers
// interleaved — the reproducibility check bgload and the chaos smoke
// script rely on.
//
// The zero Injector pointer is valid and injects nothing, following the
// telemetry package's nil-safety discipline: instrumented seams need no
// "is chaos enabled" guards.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sites: the seams the service exposes for injection.
const (
	SiteHTTP     = "http"     // request middleware
	SiteDispatch = "dispatch" // run execution attempts
	SiteCache    = "cache"    // result-cache lookups
	SiteJournal  = "journal"  // state-journal appends
)

// Injected fault sentinels. Every error this package injects wraps
// ErrInjected, so operators (and tests) can tell synthetic faults from
// organic ones with errors.Is.
var (
	ErrInjected     = errors.New("chaos: injected fault")
	ErrExec         = fmt.Errorf("%w: transient execution failure", ErrInjected)
	ErrJournalWrite = fmt.Errorf("%w: journal write failure", ErrInjected)
	ErrDiskFull     = fmt.Errorf("%w: journal disk full", ErrInjected)
)

// Config sets the per-fault probabilities (each in [0, 1]) and fault
// shapes. The zero value injects nothing.
type Config struct {
	// Seed drives every decision; two injectors with equal configs make
	// identical decision streams.
	Seed int64

	// HTTP request faults (SiteHTTP).
	LatencyP   float64       // injected pre-handler delay
	LatencyMin time.Duration // uniform delay range (defaults 5ms..100ms)
	LatencyMax time.Duration
	ErrorP     float64       // reply 5xx before the handler runs
	PanicP     float64       // panic inside the handler chain
	SlowBodyP  float64       // per-write delay on the response body
	SlowWrite  time.Duration // the per-write delay (default 2ms)
	TruncateP  float64       // cut the response body short

	// Dispatch faults (SiteDispatch): one run-execution attempt fails
	// with ErrExec (exercising the server's retry machinery).
	ExecErrP float64

	// Cache faults (SiteCache): a result-cache hit is dropped, forcing
	// re-execution (determinism makes this safe: the replay must be
	// byte-identical, which is exactly what the soak verifies).
	CacheDropP float64

	// Journal faults (SiteJournal): the state-journal append fails with
	// ErrJournalWrite, or with ErrDiskFull (persistent disk-full shape).
	JournalErrP float64
	DiskFullP   float64
}

// Profile returns a Config with every probability scaled by level
// (0 = nothing, 1 = aggressive). level is clamped to [0, 1]. The shape
// ratios keep hard failures rarer than soft ones: at level 0.2 roughly
// 5% of requests get an injected error and 2% a panic.
func Profile(seed int64, level float64) Config {
	if level < 0 {
		level = 0
	}
	if level > 1 {
		level = 1
	}
	return Config{
		Seed:        seed,
		LatencyP:    0.50 * level,
		LatencyMin:  5 * time.Millisecond,
		LatencyMax:  100 * time.Millisecond,
		ErrorP:      0.25 * level,
		PanicP:      0.10 * level,
		SlowBodyP:   0.20 * level,
		SlowWrite:   2 * time.Millisecond,
		TruncateP:   0.15 * level,
		ExecErrP:    0.25 * level,
		CacheDropP:  0.30 * level,
		JournalErrP: 0.30 * level,
		DiskFullP:   0.10 * level,
	}
}

// RequestFault is the decision for one HTTP request. The zero value
// means "no fault". At most one of ErrorStatus/Panic is set; Delay,
// SlowWrite and TruncateAfter compose with either.
type RequestFault struct {
	Delay         time.Duration // sleep before handling
	ErrorStatus   int           // non-zero: reply with this status instead of handling
	Panic         bool          // panic inside the handler chain
	SlowWrite     time.Duration // non-zero: sleep this long before every body write
	TruncateAfter int           // > 0: drop body bytes past this many
}

// Injected reports whether any fault is set.
func (f RequestFault) Injected() bool {
	return f != RequestFault{}
}

// site tracks one decision stream: the next sequence number and the
// digest of the decisions taken. Concurrent callers may fold their
// decisions in any order, so the digest sums per-decision hashes
// instead of chaining them.
type site struct {
	n      atomic.Uint64
	digest atomic.Uint64
}

// Injector hands out fault decisions. Safe for concurrent use; a nil
// *Injector injects nothing.
type Injector struct {
	cfg Config

	http     site
	dispatch site
	cache    site
	journal  site

	mu     sync.Mutex
	counts map[string]int64
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.LatencyMin <= 0 {
		cfg.LatencyMin = 5 * time.Millisecond
	}
	if cfg.LatencyMax < cfg.LatencyMin {
		cfg.LatencyMax = cfg.LatencyMin
	}
	if cfg.SlowWrite <= 0 {
		cfg.SlowWrite = 2 * time.Millisecond
	}
	return &Injector{cfg: cfg, counts: make(map[string]int64)}
}

// splitmix64 is the finisher that turns (seed, site, seq, salt) into an
// independent uniform 64-bit stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// siteHash gives each site name a fixed 64-bit identity (FNV-1a).
func siteHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// rnd returns the salt-th uniform float64 in [0, 1) of decision seq at
// the named site — a pure function of its arguments.
func (inj *Injector) rnd(siteName string, seq uint64, salt uint64) float64 {
	x := splitmix64(uint64(inj.cfg.Seed) ^ siteHash(siteName) ^ splitmix64(seq*2654435761+salt))
	return float64(x>>11) / (1 << 53)
}

// next claims the next sequence number at s.
func (s *site) next() uint64 { return s.n.Add(1) - 1 }

// fold adds decision seq, with fingerprint fp, to the site digest.
func (s *site) fold(seq, fp uint64) { s.digest.Add(splitmix64(splitmix64(seq) ^ fp)) }

func (inj *Injector) count(kind string) {
	inj.mu.Lock()
	inj.counts[kind]++
	inj.mu.Unlock()
}

// Request decides the fault treatment of one HTTP request.
func (inj *Injector) Request() RequestFault {
	if inj == nil {
		return RequestFault{}
	}
	seq := inj.http.next()
	var f RequestFault
	var fp uint64
	if inj.rnd(SiteHTTP, seq, 1) < inj.cfg.LatencyP {
		span := inj.cfg.LatencyMax - inj.cfg.LatencyMin
		f.Delay = inj.cfg.LatencyMin + time.Duration(inj.rnd(SiteHTTP, seq, 2)*float64(span+1))
		fp |= 1
		inj.count("http.latency")
	}
	// Error and panic are mutually exclusive: one roll, split ranges.
	hard := inj.rnd(SiteHTTP, seq, 3)
	switch {
	case hard < inj.cfg.ErrorP:
		// Rotate through the 5xx family deterministically.
		statuses := [...]int{500, 502, 503}
		f.ErrorStatus = statuses[int(inj.rnd(SiteHTTP, seq, 4)*float64(len(statuses)))]
		fp |= 2
		inj.count("http.error")
	case hard < inj.cfg.ErrorP+inj.cfg.PanicP:
		f.Panic = true
		fp |= 4
		inj.count("http.panic")
	}
	if inj.rnd(SiteHTTP, seq, 5) < inj.cfg.SlowBodyP {
		f.SlowWrite = inj.cfg.SlowWrite
		fp |= 8
		inj.count("http.slow_body")
	}
	if inj.rnd(SiteHTTP, seq, 6) < inj.cfg.TruncateP {
		// Cut somewhere inside a typical JSON record body.
		f.TruncateAfter = 1 + int(inj.rnd(SiteHTTP, seq, 7)*256)
		fp |= 16
		inj.count("http.truncate")
	}
	inj.http.fold(seq, fp|uint64(f.ErrorStatus)<<8|uint64(f.Delay)<<16)
	return f
}

// Exec decides whether one run-execution attempt fails (ErrExec).
func (inj *Injector) Exec() error {
	if inj == nil {
		return nil
	}
	seq := inj.dispatch.next()
	if inj.rnd(SiteDispatch, seq, 1) < inj.cfg.ExecErrP {
		inj.dispatch.fold(seq, 1)
		inj.count("dispatch.exec_error")
		return ErrExec
	}
	inj.dispatch.fold(seq, 0)
	return nil
}

// CacheDrop decides whether a result-cache hit is dropped, forcing
// re-execution.
func (inj *Injector) CacheDrop() bool {
	if inj == nil {
		return false
	}
	seq := inj.cache.next()
	if inj.rnd(SiteCache, seq, 1) < inj.cfg.CacheDropP {
		inj.cache.fold(seq, 1)
		inj.count("cache.drop")
		return true
	}
	inj.cache.fold(seq, 0)
	return false
}

// Journal decides whether one state-journal append fails, and how.
func (inj *Injector) Journal() error {
	if inj == nil {
		return nil
	}
	seq := inj.journal.next()
	roll := inj.rnd(SiteJournal, seq, 1)
	switch {
	case roll < inj.cfg.DiskFullP:
		inj.journal.fold(seq, 2)
		inj.count("journal.disk_full")
		return ErrDiskFull
	case roll < inj.cfg.DiskFullP+inj.cfg.JournalErrP:
		inj.journal.fold(seq, 1)
		inj.count("journal.write_error")
		return ErrJournalWrite
	}
	inj.journal.fold(seq, 0)
	return nil
}

// Counts returns a copy of the per-fault-kind injection counts.
func (inj *Injector) Counts() map[string]int64 {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int64, len(inj.counts))
	for k, v := range inj.counts {
		out[k] = v
	}
	return out
}

// Digest renders the per-site decision streams as
// "site:count:hexdigest" joined by spaces, sites sorted by name. Two
// injectors with the same seed and the same per-site decision counts
// have equal digests — the reproducibility invariant.
func (inj *Injector) Digest() string {
	if inj == nil {
		return ""
	}
	sites := map[string]*site{
		SiteHTTP: &inj.http, SiteDispatch: &inj.dispatch,
		SiteCache: &inj.cache, SiteJournal: &inj.journal,
	}
	names := make([]string, 0, len(sites))
	for n := range sites {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		s := sites[n]
		parts = append(parts, fmt.Sprintf("%s:%d:%016x", n, s.n.Load(), s.digest.Load()))
	}
	return strings.Join(parts, " ")
}
