// Command bgload drives a synthetic client fleet against the bgserve
// API and reports whether the service met its SLOs under that load:
// latency percentiles per operation, an error budget, a cached-result
// corruption check, and (in self-hosted mode) a journal-recovery check.
//
// Two modes:
//
//	bgload -addr http://127.0.0.1:8080        # external server
//	bgload -chaos-seed 7 -chaos-level 0.4     # self-hosted server, chaos on
//
// Without -addr, bgload starts a bgserve service in-process on a
// loopback port, optionally wrapped in the deterministic chaos
// injector; the printed report then includes the injector's fault
// digest, which is reproducible: the same -chaos-seed, -seed and
// -clients 1 replay the identical fault schedule.
//
// The traffic mix (weighted read / run / figure operations), the
// config pool, and every client's retry jitter all derive from -seed,
// so a failing soak is rerunnable exactly.
//
// Exit status is 0 when every SLO passed, 1 otherwise; -json swaps the
// human report for a machine-readable one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgsched/internal/chaos"
	"bgsched/internal/client"
	"bgsched/internal/experiments"
	"bgsched/internal/resilience"
	"bgsched/internal/service"
	"bgsched/internal/telemetry"
)

func main() {
	ctx, stop := resilience.SignalContext(context.Background())
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgload:", err)
		os.Exit(1)
	}
}

// errSLO marks a completed soak whose report failed its objectives.
var errSLO = errors.New("SLO check failed")

type options struct {
	addr       string
	clients    int
	requests   int
	seed       int64
	chaosSeed  int64
	chaosLevel float64
	statePath  string
	mixRead    int
	mixRun     int
	mixFigure  int
	sloP99     time.Duration
	sloErrors  float64
	opTimeout  time.Duration
	jsonOut    bool
	workers    int
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bgload", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.addr, "addr", "", "target server base URL (empty: start a server in-process)")
	fs.IntVar(&o.clients, "clients", 4, "concurrent synthetic clients")
	fs.IntVar(&o.requests, "requests", 100, "total operations across the fleet")
	fs.Int64Var(&o.seed, "seed", 1, "traffic-schedule seed (configs, mix order, retry jitter)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 0, "fault-injection seed for the in-process server (self mode only)")
	fs.Float64Var(&o.chaosLevel, "chaos-level", 0, "fault-injection intensity in [0,1] for the in-process server")
	fs.StringVar(&o.statePath, "state", "", "state journal for the in-process server; enables the restart-recovery check")
	fs.IntVar(&o.mixRead, "mix-read", 3, "weight of read (GET run) operations")
	fs.IntVar(&o.mixRun, "mix-run", 6, "weight of run-submission operations")
	fs.IntVar(&o.mixFigure, "mix-figure", 1, "weight of figure-sweep operations")
	fs.DurationVar(&o.sloP99, "slo-p99", 60*time.Second, "SLO: per-op p99 latency ceiling")
	fs.Float64Var(&o.sloErrors, "slo-errors", 0.05, "SLO: failed-operation budget as a fraction of total")
	fs.DurationVar(&o.opTimeout, "op-timeout", 2*time.Minute, "context deadline per operation (including retries)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the SLO report as JSON")
	fs.IntVar(&o.workers, "workers", 2, "in-process server run executors (self mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.clients < 1 || o.requests < 1 {
		return errors.New("-clients and -requests must be >= 1")
	}
	if o.mixRead+o.mixRun+o.mixFigure <= 0 {
		return errors.New("traffic mix weights sum to zero")
	}

	baseURL := o.addr
	var inj *chaos.Injector
	var svc *service.Server
	var shutdown func() error
	if baseURL == "" {
		if o.chaosLevel > 0 {
			inj = chaos.New(chaos.Profile(o.chaosSeed, o.chaosLevel))
		}
		var err error
		baseURL, svc, shutdown, err = startSelfServer(o, inj)
		if err != nil {
			return err
		}
		if !o.jsonOut { // keep -json output a single clean document
			fmt.Fprintf(out, "bgload: self-hosted server on %s\n", baseURL)
		}
	}

	rep, err := soak(ctx, o, baseURL)
	if err != nil {
		if shutdown != nil {
			shutdown()
		}
		return err
	}
	if inj != nil {
		rep.Chaos = &chaosReport{Seed: o.chaosSeed, Level: o.chaosLevel, Digest: inj.Digest(), Counts: inj.Counts()}
	}

	// Restart-recovery check: close the journalled server, reopen it on
	// the same state file, and demand a warm-cache hit for a config that
	// completed during the soak. This is the in-process analogue of the
	// smoke script's kill -9.
	if svc != nil && o.statePath != "" {
		rep.JournalRecovery = checkRecovery(o, shutdown, rep.summaries, inj != nil)
	} else if shutdown != nil {
		shutdown()
	}

	rep.evaluate(o)
	if o.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		rep.render(out)
	}
	if !rep.Pass {
		return errSLO
	}
	return nil
}

// startSelfServer boots a service on a loopback port. The returned
// shutdown drains and closes it (idempotent).
func startSelfServer(o options, inj *chaos.Injector) (string, *service.Server, func() error, error) {
	cfg := service.Config{
		Workers:    o.workers,
		QueueDepth: 32,
		StatePath:  o.statePath,
		RunTimeout: 5 * time.Minute,
		Retries:    2,
	}
	if inj != nil {
		cfg.Chaos = inj
	}
	svc, err := service.New(cfg)
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	var once sync.Once
	shutdown := func() error {
		var err error
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			err = svc.Close(ctx)
		})
		return err
	}
	return "http://" + ln.Addr().String(), svc, shutdown, nil
}

// op kinds in the synthetic schedule.
const (
	opRead   = "read"
	opRun    = "run"
	opFigure = "figure"
)

// schedOp is one pre-drawn operation: its kind, which pool config it
// targets, and a random pick used for read-id selection — all fixed
// before any client starts, so the schedule is a pure function of the
// seed.
type schedOp struct {
	kind string
	cfg  int
	pick int
}

// buildSchedule derives the whole soak deterministically from the
// seed: a pool of distinct run configs and a weighted shuffle of
// operations.
func buildSchedule(o options) ([]experiments.RunConfig, []schedOp) {
	rng := rand.New(rand.NewSource(o.seed))
	const poolSize = 6
	pool := make([]experiments.RunConfig, poolSize)
	scheds := []experiments.SchedulerKind{experiments.SchedBaseline, experiments.SchedBalancing, experiments.SchedTieBreak}
	for i := range pool {
		pool[i] = experiments.RunConfig{
			Workload:       "NASA",
			JobCount:       40 + 10*rng.Intn(4),
			FailureNominal: 500,
			Scheduler:      scheds[rng.Intn(len(scheds))],
			Param:          0.1,
			Seed:           int64(1 + rng.Intn(4)),
		}
	}
	total := o.mixRead + o.mixRun + o.mixFigure
	ops := make([]schedOp, o.requests)
	for i := range ops {
		var kind string
		switch r := rng.Intn(total); {
		case r < o.mixRun:
			kind = opRun
		case r < o.mixRun+o.mixRead:
			kind = opRead
		default:
			kind = opFigure
		}
		ops[i] = schedOp{kind: kind, cfg: rng.Intn(poolSize), pick: rng.Int()}
	}
	return pool, ops
}

// fleetState is what the clients share: the schedule cursor, completed
// run ids for read ops, and the per-config summary fingerprints for
// the corruption check.
type fleetState struct {
	next      atomic.Int64
	cacheHits atomic.Int64 // runs answered with X-Cache: hit
	chaosSeen atomic.Int64 // runs answered with an X-Chaos header

	mu        sync.Mutex
	doneIDs   []string
	summaries map[string]string // config hash -> first-seen summary
	corrupt   int
	failures  []string // sampled failure messages
	failCount int64
}

func (st *fleetState) recordFailure(op string, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failCount++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, fmt.Sprintf("%s: %v", op, err))
	}
}

// recordResult folds a terminal RunView into the corruption check: the
// first summary seen for a config hash is the reference; any later
// result for the same hash must match it byte for byte. (Summaries,
// not whole results: the embedded telemetry carries wall-clock timings
// that legitimately vary between executions.)
func (st *fleetState) recordResult(v service.RunView) {
	if v.State != service.StateDone || len(v.Result) == 0 || v.ConfigHash == "" {
		return
	}
	var r struct {
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(v.Result, &r); err != nil || len(r.Summary) == 0 {
		return // figure results have no summary; they are cache-served verbatim
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.summaries[v.ConfigHash]; ok {
		if prev != string(r.Summary) {
			st.corrupt++
		}
	} else {
		st.summaries[v.ConfigHash] = string(r.Summary)
	}
	st.doneIDs = append(st.doneIDs, v.ID)
}

func (st *fleetState) pickDoneID(pick int) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.doneIDs) == 0 {
		return ""
	}
	return st.doneIDs[pick%len(st.doneIDs)]
}

// soak runs the fleet to schedule exhaustion and collects the report.
func soak(ctx context.Context, o options, baseURL string) (*report, error) {
	pool, ops := buildSchedule(o)
	st := &fleetState{summaries: make(map[string]string)}
	reg := telemetry.New()
	hists := map[string]*telemetry.Histogram{
		opRead:   reg.Histogram("bgload.read.seconds"),
		opRun:    reg.Histogram("bgload.run.seconds"),
		opFigure: reg.Histogram("bgload.figure.seconds"),
	}
	var wg sync.WaitGroup
	for ci := 0; ci < o.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := client.New(client.Config{
				BaseURL:    baseURL,
				JitterSeed: o.seed*31 + int64(ci) + 1,
			})
			for {
				idx := int(st.next.Add(1)) - 1
				if idx >= len(ops) || ctx.Err() != nil {
					return
				}
				op := ops[idx]
				opCtx, cancel := context.WithTimeout(ctx, o.opTimeout)
				start := time.Now()
				err := doOp(opCtx, cl, op, pool, st)
				cancel()
				if err != nil {
					st.recordFailure(op.kind, err)
					continue
				}
				hists[op.kind].Observe(time.Since(start).Seconds())
			}
		}(ci)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("soak interrupted: %w", err)
	}

	rep := &report{
		Requests:  o.requests,
		Failures:  int(st.failCount),
		CacheHits: st.cacheHits.Load(),
		ChaosSeen: st.chaosSeen.Load(),
		Corruption: corruptionReport{
			Configs:    len(st.summaries),
			Mismatches: st.corrupt,
		},
		FailureSamples: st.failures,
		Ops:            map[string]opReport{},
	}
	for kind, h := range hists {
		stats := h.Stats()
		if stats.Count == 0 {
			continue
		}
		rep.Ops[kind] = opReport{
			Count: stats.Count,
			P50ms: 1000 * stats.Quantiles["p50"],
			P99ms: 1000 * stats.Quantiles["p99"],
		}
	}
	st.mu.Lock()
	rep.summaries = st.summaries
	st.mu.Unlock()
	return rep, nil
}

// doOp executes one scheduled operation.
func doOp(ctx context.Context, cl *client.Client, op schedOp, pool []experiments.RunConfig, st *fleetState) error {
	switch op.kind {
	case opRun:
		v, hdr, err := cl.DoHeaders(ctx, http.MethodPost, "/v1/runs?wait=1", pool[op.cfg])
		if err != nil {
			return err
		}
		if hdr.Get("X-Cache") == "hit" {
			st.cacheHits.Add(1)
		}
		if hdr.Get("X-Chaos") != "" {
			st.chaosSeen.Add(1)
		}
		if v.State != service.StateDone {
			return fmt.Errorf("run finished %s: %s", v.State, v.Error)
		}
		st.recordResult(v)
		return nil
	case opRead:
		id := st.pickDoneID(op.pick)
		if id == "" {
			return cl.Ready(ctx) // nothing to read yet: probe instead
		}
		v, err := cl.Get(ctx, id)
		if err != nil {
			return err
		}
		st.recordResult(v)
		return nil
	default: // figure
		v, err := cl.Figure(ctx, "fig5", service.FigureRequest{
			Options: experiments.Options{JobCount: 40, Replications: 1, Seed: int64(1 + op.pick%3)},
		})
		if err != nil {
			return err
		}
		if v.State != service.StateDone {
			return fmt.Errorf("figure finished %s: %s", v.State, v.Error)
		}
		return nil
	}
}

// checkRecovery closes the soaked server and reopens the journal: a
// fresh server over the same state file must cold-start cleanly, and
// every run it restores must match the summary the fleet recorded for
// that config during the soak — journalled bytes survived the restart
// uncorrupted. Under chaos, individual appends may have been injected
// to fail (those runs are legitimately absent); with chaos off, at
// least one completed run must actually come back. Any error string
// fails the SLO; "ok" passes.
func checkRecovery(o options, shutdown func() error, summaries map[string]string, chaosOn bool) string {
	if err := shutdown(); err != nil {
		return fmt.Sprintf("drain failed: %v", err)
	}
	reopened, err := service.New(service.Config{StatePath: o.statePath})
	if err != nil {
		return fmt.Sprintf("reopen failed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer reopened.Close(ctx)

	rec := httptest.NewRecorder()
	reopened.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs?state=done", nil))
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("list after restore answered %d", rec.Code)
	}
	var list struct {
		Runs []service.RunView `json:"runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		return fmt.Sprintf("decode restored list: %v", err)
	}
	restored, matched := 0, 0
	for _, v := range list.Runs {
		rec := httptest.NewRecorder()
		reopened.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+v.ID, nil))
		var full service.RunView
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &full) != nil {
			return fmt.Sprintf("restored run %s unreadable (%d)", v.ID, rec.Code)
		}
		restored++
		want, known := summaries[full.ConfigHash]
		if !known {
			continue // figure run, or config this fleet never fingerprinted
		}
		var r struct {
			Summary json.RawMessage `json:"summary"`
		}
		if json.Unmarshal(full.Result, &r) != nil || string(r.Summary) != want {
			return fmt.Sprintf("restored run %s diverged from soak-time result", v.ID)
		}
		matched++
	}
	if !chaosOn && len(summaries) > 0 && restored == 0 {
		return "no runs restored although the soak completed some"
	}
	return fmt.Sprintf("ok (%d restored, %d verified against soak results)", restored, matched)
}

// report is the pass/fail SLO summary bgload prints.
type report struct {
	Pass            bool                `json:"pass"`
	Requests        int                 `json:"requests"`
	Failures        int                 `json:"failures"`
	ErrorRate       float64             `json:"error_rate"`
	CacheHits       int64               `json:"cache_hits"`
	ChaosSeen       int64               `json:"chaos_faults_observed"`
	Ops             map[string]opReport `json:"ops"`
	Corruption      corruptionReport    `json:"corruption"`
	JournalRecovery string              `json:"journal_recovery,omitempty"`
	Chaos           *chaosReport        `json:"chaos,omitempty"`
	Violations      []string            `json:"violations,omitempty"`
	FailureSamples  []string            `json:"failure_samples,omitempty"`

	// summaries carries the per-config fingerprints into the recovery
	// check (not serialized).
	summaries map[string]string
}

type opReport struct {
	Count int64   `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

type corruptionReport struct {
	Configs    int `json:"configs"`
	Mismatches int `json:"mismatches"`
}

type chaosReport struct {
	Seed   int64            `json:"seed"`
	Level  float64          `json:"level"`
	Digest string           `json:"digest"`
	Counts map[string]int64 `json:"counts"`
}

// evaluate applies the SLOs and fills Pass/Violations.
func (r *report) evaluate(o options) {
	r.ErrorRate = float64(r.Failures) / float64(max(r.Requests, 1))
	if r.ErrorRate > o.sloErrors {
		r.Violations = append(r.Violations,
			fmt.Sprintf("error rate %.3f exceeds budget %.3f", r.ErrorRate, o.sloErrors))
	}
	for kind, op := range r.Ops {
		if op.P99ms > o.sloP99.Seconds()*1000 {
			r.Violations = append(r.Violations,
				fmt.Sprintf("%s p99 %.0fms exceeds %s", kind, op.P99ms, o.sloP99))
		}
	}
	if r.Corruption.Mismatches > 0 {
		r.Violations = append(r.Violations,
			fmt.Sprintf("%d corrupted cached results", r.Corruption.Mismatches))
	}
	if r.JournalRecovery != "" && !strings.HasPrefix(r.JournalRecovery, "ok") {
		r.Violations = append(r.Violations, "journal recovery: "+r.JournalRecovery)
	}
	sort.Strings(r.Violations)
	r.Pass = len(r.Violations) == 0
}

// render prints the human-readable report.
func (r *report) render(w io.Writer) {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "bgload SLO report: %s\n", verdict)
	fmt.Fprintf(w, "  requests: %d  failures: %d  error rate: %.3f\n", r.Requests, r.Failures, r.ErrorRate)
	fmt.Fprintf(w, "  cache hits: %d  chaos faults observed: %d\n", r.CacheHits, r.ChaosSeen)
	kinds := make([]string, 0, len(r.Ops))
	for k := range r.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		op := r.Ops[k]
		fmt.Fprintf(w, "  %-7s n=%-5d p50=%7.1fms  p99=%7.1fms\n", k, op.Count, op.P50ms, op.P99ms)
	}
	fmt.Fprintf(w, "  corruption: %d mismatches across %d configs\n", r.Corruption.Mismatches, r.Corruption.Configs)
	if r.JournalRecovery != "" {
		fmt.Fprintf(w, "  journal recovery: %s\n", r.JournalRecovery)
	}
	if r.Chaos != nil {
		fmt.Fprintf(w, "  chaos: seed=%d level=%g digest=%s\n", r.Chaos.Seed, r.Chaos.Level, r.Chaos.Digest)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, s := range r.FailureSamples {
		fmt.Fprintf(w, "  failure sample: %s\n", s)
	}
}
