package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"bgsched/internal/build"
	"bgsched/internal/experiments"
	"bgsched/internal/partition"
	"bgsched/internal/service"
	"bgsched/internal/telemetry"
)

// runBody is the POST /v1/runs payload the mix submits.
type runBody struct {
	Workload       string
	JobCount       int
	FailureNominal int
	Scheduler      string
	Param          float64
	Finder         string `json:",omitempty"`
	Contention     string `json:",omitempty"`
	Seed           int64
}

func (b runBody) json() []byte {
	data, err := json.Marshal(b)
	if err != nil {
		panic(err) // a struct of plain fields always encodes
	}
	return data
}

// config is the run b submits.
func (b runBody) config() experiments.RunConfig {
	return experiments.RunConfig{Workload: b.Workload, JobCount: b.JobCount, FailureNominal: b.FailureNominal,
		Scheduler: experiments.SchedulerKind(b.Scheduler), Param: b.Param, Finder: b.Finder,
		Contention: b.Contention, Seed: b.Seed}
}

// coldPlacements are the placement paths of the cold rotation, as
// finder and contention preset: the default finder without contention,
// the memoised fast finder, and the annealing placer with medium
// contention.
var coldPlacements = [][2]string{{"", ""}, {"fast", "off"}, {"anneal", "medium"}}

// coldMix is the rotation of cold submissions: every log × scheduler ×
// placement path.
func coldMix(jobs int) []runBody {
	var out []runBody
	for _, wl := range []string{"NASA", "SDSC", "LLNL"} {
		for _, sched := range []string{"baseline", "balancing", "tiebreak"} {
			for _, pl := range coldPlacements {
				out = append(out, runBody{Workload: wl, JobCount: jobs, FailureNominal: 1000,
					Scheduler: sched, Param: 0.1, Finder: pl[0], Contention: pl[1]})
			}
		}
	}
	return out
}

// warmBody is run i of the read set: every log under the baseline,
// then under the balancing scheduler.
func warmBody(sc scale, i int) runBody {
	return runBody{Workload: []string{"NASA", "SDSC", "LLNL"}[i%3], JobCount: sc.serveJobs,
		FailureNominal: 1000, Scheduler: []string{"baseline", "balancing"}[i/3%2], Param: 0.1, Seed: int64(i + 1)}
}

// warmRun is one completed run of the read set, with the bytes every
// later read of it must return.
type warmRun struct {
	body   []byte // its POST body
	hit    []byte // the original answer, which cache hits must repeat
	path   string // its event-log path
	events []byte // its event log
	count  int    // events in it
}

// server is one in-process bgserve behind a loopback listener, with the
// generator that talks to it and its warmed read set.
type server struct {
	srv      *service.Server
	hs       *http.Server
	serveErr chan error
	gen      *loadgen
	warm     []warmRun
}

// startServer boots a server with the default service.Config (no
// journal) on an empty artifact cache and completes the read set.
func startServer(ctx context.Context, sc scale) (*server, error) {
	build.Shared.Purge()
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(ctx)
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, serveErr: make(chan error, 1),
		gen: newLoadgen("http://" + ln.Addr().String())}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	if err := s.warmUp(ctx, sc); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// warmUp completes the read set and fetches each run's event log once.
func (s *server) warmUp(ctx context.Context, sc scale) error {
	for i := 0; i < sc.warmRuns; i++ {
		b := warmBody(sc, i)
		w := warmRun{body: b.json()}
		status, h, hit, err := fetch(ctx, s.gen.cold, http.MethodPost, s.gen.base+"/v1/runs?wait=1", w.body)
		if err != nil {
			return err
		}
		o, err := checkCold(b.JobCount)(status, h, hit)
		if err != nil {
			return err
		}
		w.hit, w.path, w.count = hit, "/v1/runs/"+o.id+"/events", o.events
		status, _, w.events, err = fetch(ctx, s.gen.read, http.MethodGet, s.gen.base+w.path, nil)
		if err != nil {
			return err
		}
		if n := bytes.Count(w.events, []byte("\n")); status != http.StatusOK || n != w.count {
			return fmt.Errorf("%s: status %d, %d event lines, run reports %d", w.path, status, n, w.count)
		}
		s.warm = append(s.warm, w)
	}
	return nil
}

// stop shuts the listener, the generator's connections and the server.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.gen.close()
	if cerr := s.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// checkCold validates a cache-miss submission answer: a 200 with
// X-Cache: miss carrying a done run whose summary counts every job.
// It extracts the service timings and the run's telemetry.
func checkCold(jobs int) func(int, http.Header, []byte) (outcome, error) {
	return func(status int, h http.Header, body []byte) (outcome, error) {
		if status != http.StatusOK || h.Get("X-Cache") != "miss" {
			return outcome{}, fmt.Errorf("cold submission: status %d, X-Cache %q", status, h.Get("X-Cache"))
		}
		var v service.RunView
		if err := json.Unmarshal(body, &v); err != nil {
			return outcome{}, fmt.Errorf("cold submission: %w", err)
		}
		var r service.SimResult
		if err := json.Unmarshal(v.Result, &r); err != nil || v.State != service.StateDone ||
			v.Started == nil || v.Finished == nil {
			return outcome{}, fmt.Errorf("cold submission %s: state %s, result error %v", v.ID, v.State, err)
		}
		if r.Summary.Jobs != jobs {
			return outcome{}, fmt.Errorf("cold submission %s: %d of %d jobs finished", v.ID, r.Summary.Jobs, jobs)
		}
		t := &layerTotals{runDur: v.Finished.Sub(*v.Started)}
		t.addSnapshot(r.Telemetry)
		addFinderTelemetry(t, r.Telemetry)
		return outcome{
			id:     v.ID,
			digest: simResultDigest(r),
			queue:  v.Started.Sub(v.Submitted), exec: t.runDur, server: v.Finished.Sub(v.Submitted),
			events: v.Events, traces: v.Traces, layerStats: t,
		}, nil
	}
}

// simResultDigest identifies a service run's result, less its
// telemetry snapshot.
func simResultDigest(r service.SimResult) string {
	return digest(r.Summary, r.FailureEvents, r.JobKills, r.Migrations, r.Checkpoints, r.Backfills)
}

// policyMetrics are the per-layer metrics only the policy wrapper can
// measure.
var policyMetrics = []string{"core.policy_ms", "core.self_ms", "core.cands_per_choose", "predict.probes",
	"partition.mfp_cache_hit_ratio", "partition.mfp_lookups"}

// addFinderTelemetry reads the finder's own instruments, the only view
// of the finder a run inside the service offers.
func addFinderTelemetry(t *layerTotals, s *telemetry.Snapshot) {
	if s == nil {
		return
	}
	for _, algo := range partition.Names {
		t.finder.calls += s.Counters["finder."+algo+".calls"]
		t.finder.cands += int64(s.Histograms["finder."+algo+".candidates"].Sum)
		t.finder.dur += time.Duration(s.Histograms["finder."+algo+".seconds"].Sum * float64(time.Second))
	}
	t.events += s.Counters["sim.events"]
}

// checkRead validates a read against the bytes it must repeat; hit
// reads must also come from the result cache.
func checkRead(want []byte, hit bool, events int) func(int, http.Header, []byte) (outcome, error) {
	return func(status int, h http.Header, body []byte) (outcome, error) {
		if status != http.StatusOK || (hit && h.Get("X-Cache") != "hit") {
			return outcome{}, fmt.Errorf("read: status %d, X-Cache %q", status, h.Get("X-Cache"))
		}
		if !bytes.Equal(body, want) {
			return outcome{}, fmt.Errorf("read: %d-byte body differs from the %d-byte original", len(body), len(want))
		}
		return outcome{events: events}, nil
	}
}

// schedule draws the open loop's requests from seed: cold submissions
// every coldGap and hitsPerCold+logsPerCold reads in each such gap,
// evenly spaced, each sent at a point drawn uniformly from the middle
// fifth of its slot, so sends of a class stay at least 0.8 gaps apart.
// The cold runs are a fixed set — cold run i is coldMix[i mod 27] with
// run seed 1000000+i, new to a fresh server — sent in an order drawn
// from the seed, because a run's cost varies too much with its run
// seed for a seeded set to give steady numbers (README.md). The reads
// are fixed the same way: logsPerCold per cold submission fetch an
// event log, the rest resubmit a completed config, spread evenly over
// the read set.
func schedule(sc scale, seed int64, window time.Duration, warm []warmRun) []request {
	rng := rand.New(rand.NewSource(seed))
	slot := func(i int, gap time.Duration) time.Duration {
		return time.Duration((float64(i) + 0.4 + 0.2*rng.Float64()) * float64(gap))
	}
	mix := coldMix(sc.serveJobs)
	var reqs []request
	nCold := int(window / sc.coldGap)
	for k, i := range rng.Perm(nCold) {
		b := mix[i%len(mix)]
		b.Seed = 1_000_000 + int64(i)
		reqs = append(reqs, request{due: slot(k, sc.coldGap), class: classCold, method: http.MethodPost,
			path: "/v1/runs?wait=1", body: b.json(), check: checkCold(b.JobCount)})
	}
	perCold := sc.hitsPerCold + sc.logsPerCold
	readGap := sc.coldGap / time.Duration(perCold)
	for k, i := range rng.Perm(nCold * perCold) {
		w := warm[i%len(warm)]
		r := request{due: slot(k, readGap), class: classRead}
		if i < nCold*sc.logsPerCold {
			r.method, r.path, r.check = http.MethodGet, w.path, checkRead(w.events, false, w.count)
		} else {
			r.method, r.path, r.body, r.check = http.MethodPost, "/v1/runs?wait=1", w.body, checkRead(w.hit, true, 0)
		}
		reqs = append(reqs, r)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// tally books the samples' operations and returns the cold and the
// read latencies, in seconds.
func tally(rep *report, samples []sample, pass string) (cold, read []float64) {
	for _, s := range samples {
		rep.attempted++
		if s.err != nil {
			rep.fail(1, "%s %s %s: %v", pass, s.req.method, s.req.path, s.err)
		}
		if s.req.class == classCold {
			cold = append(cold, s.latency().Seconds())
		} else {
			read = append(read, s.latency().Seconds())
		}
	}
	return cold, read
}

// runServe plays the seeded serve mix against an in-process bgserve
// for the window. The operation is one cold submission: op_cpu_s is
// the process's CPU time over the window, reads included, per cold
// submission.
func runServe(ctx context.Context, cfg config) (*report, error) {
	sc := cfg.scale
	rep := newReport()
	srv, setup, err := medianSetup(ctx, sc, func() (*server, error) { return startServer(ctx, sc) },
		func(s *server) { s.stop() })
	if err != nil {
		return nil, inPhase("setup", err)
	}
	c0 := cpuTime()
	samples := srv.gen.play(ctx, schedule(sc, cfg.seed, cfg.window, srv.warm), nil, 0)
	cpu := cpuTime() - c0
	if ctx.Err() != nil {
		srv.stop()
		return nil, inPhase("timed", ctx.Err())
	}
	cold, read := tally(rep, samples, "timed")
	rep.e2e["op_cpu_s"] = cpu.Seconds() / float64(max(len(cold), 1))
	rep.e2e["setup_s"] = setup
	rep.e2e["live_heap_mb"] = liveHeapMB()
	rep.layers["bench.wall_p50_s"] = quantile(cold, 0.5)
	rep.layers["bench.wall_p90_s"] = quantile(cold, 0.9)
	rep.layers["service.read_p50_ms"] = 1000 * quantile(read, 0.5)
	rep.layers["service.read_p90_ms"] = 1000 * quantile(read, 0.9)
	if err := srv.stop(); err != nil {
		return nil, inPhase("teardown", err)
	}
	if !cfg.traced {
		return rep, nil
	}

	// Traced pass: the same schedule against a fresh server, with a span
	// per request and the runs' own telemetry.
	coldBuild, warmBuild, err := buildCosts(warmBody(sc, 0).config())
	if err != nil {
		return nil, inPhase("traced", err)
	}
	tsrv, err := startServer(ctx, sc)
	if err != nil {
		return nil, inPhase("traced", err)
	}
	spans := newSpanLog()
	root := spans.begin("serve-mix", 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c1 := cpuTime()
	traced := tsrv.gen.play(ctx, schedule(sc, cfg.seed, cfg.window, tsrv.warm), spans, root)
	tcpu := cpuTime() - c1
	runtime.ReadMemStats(&m1)
	reg := tsrv.srv.Registry().Snapshot()
	if err := tsrv.stop(); err != nil {
		return nil, inPhase("traced", err)
	}
	if ctx.Err() != nil {
		return nil, inPhase("traced", ctx.Err())
	}
	tally(rep, traced, "traced")

	var tot layerTotals
	var queue, exec, httpd, late []float64
	var colds []sample
	traces, events, logBytes, logEvents := 0, 0, 0, 0
	rejected := 0
	for i, s := range traced {
		late = append(late, ms(s.late()))
		if st := s.out.status; st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
			rejected++
		}
		if s.err != nil {
			continue
		}
		switch {
		case s.req.class == classCold:
			if u := samples[i]; u.err == nil && u.out.digest != s.out.digest {
				rep.fail(1, "traced %s: digest %s, untraced %s", s.req.body, s.out.digest, u.out.digest)
			}
			colds = append(colds, s)
			tot.merge(s.out.layerStats)
			queue = append(queue, ms(s.out.queue))
			exec = append(exec, ms(s.out.exec))
			httpd = append(httpd, ms(s.done-s.conn-s.out.server))
			traces += s.out.traces
			events += s.out.events
		case s.req.method == http.MethodGet:
			logBytes += s.out.bytes
			logEvents += s.out.events
		}
	}
	tot.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	n := float64(max(len(colds), 1))
	layers := rep.layers
	tot.fill(layers, n)

	// The policy runs inside the service, out of the wrapper's reach, so
	// every cold run is also replayed directly through the wrapped
	// layers. The replay must reproduce the service's result, and it
	// supplies the policy metrics.
	var direct layerTotals
	ds := spans.begin("direct replay", root)
	for _, s := range colds {
		var b runBody
		if err := json.Unmarshal(s.req.body, &b); err != nil {
			return nil, inPhase("traced", err)
		}
		res, err := instrumentedRun(ctx, b.config(), spans, ds, &direct)
		rep.attempted++
		if ctx.Err() != nil {
			return nil, inPhase("traced", ctx.Err())
		}
		if err != nil {
			rep.fail(1, "direct %s: %v", s.req.body, err)
			continue
		}
		d := simResultDigest(service.SimResult{Summary: res.Summary, FailureEvents: res.FailureEvents,
			JobKills: res.JobKills, Migrations: res.Migrations, Checkpoints: res.Checkpoints, Backfills: res.Backfills})
		if d != s.out.digest {
			rep.fail(1, "direct %s: digest %s, service %s", s.req.body, d, s.out.digest)
		}
	}
	spans.end(ds)
	pm := map[string]float64{}
	direct.fill(pm, n)
	for _, k := range policyMetrics {
		layers[k] = pm[k]
	}
	hits, misses := reg.Counters["service.cache.hits"], reg.Counters["service.cache.misses"]
	layers["build.cold_ms"], layers["build.warm_ms"] = ms(coldBuild), ms(warmBuild)
	layers["sim.eventlog_bytes_per_event"] = ratio(float64(logBytes), float64(logEvents))
	layers["trace.records_per_event"] = ratio(float64(traces), float64(events))
	layers["service.queue_wait_ms"] = quantile(queue, 0.5)
	layers["service.exec_ms"] = quantile(exec, 0.5)
	layers["service.http_ms"] = quantile(httpd, 0.5)
	layers["service.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	layers["service.rejected"] = float64(rejected)
	layers["loadgen.late_p99_ms"] = quantile(late, 0.99)
	layers["bench.trace_overhead"] = tcpu.Seconds()/cpu.Seconds() - 1
	spans.end(root)
	return rep, inPhase("spans", spans.write(cfg.spans, fmt.Sprintf("%s-seed%d.json", cfg.name, cfg.seed)))
}
