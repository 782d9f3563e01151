package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bgsched/internal/trace"
)

// newTestServer builds a Server + httptest front end with fast-test
// defaults; cleanup drains it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.RunTimeout == 0 {
		cfg.RunTimeout = time.Minute
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

// tinyRunBody is a sub-second simulation request.
const tinyRunBody = `{"Workload":"NASA","JobCount":60,"FailureNominal":500,"Scheduler":"balancing","Param":0.1}`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func decodeView(t *testing.T, b []byte) RunView {
	t.Helper()
	var v RunView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decode run view: %v\n%s", err, b)
	}
	return v
}

// metricValue scrapes /metrics and returns the value line for a
// Prometheus sample name, e.g. "service_cache_hits".
func metricValue(t *testing.T, baseURL, name string) (float64, bool) {
	t.Helper()
	_, b := getBody(t, baseURL+"/metrics")
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
				t.Fatalf("parse metric %s: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, b := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || string(b) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, b)
	}
	resp, _ = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	s.BeginDrain()
	resp, _ = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	resp, b = postJSON(t, ts.URL+"/v1/runs", tinyRunBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d %s, want 503", resp.StatusCode, b)
	}
}

func TestRunEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("wait submit = %d %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	if v.Events == 0 {
		t.Fatal("completed run reports zero events")
	}
	var res struct {
		Summary struct{ Jobs int }
	}
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Summary.Jobs != 60 {
		t.Fatalf("summary jobs = %d, want 60", res.Summary.Jobs)
	}

	// The record endpoint serves the identical stored body.
	resp, got := getBody(t, ts.URL+"/v1/runs/"+v.ID)
	if resp.StatusCode != 200 || !bytes.Equal(got, body) {
		t.Fatalf("GET record differs from wait body (status %d)", resp.StatusCode)
	}

	// The event stream replays the whole JSONL log.
	resp, events := getBody(t, ts.URL+"/v1/runs/"+v.ID+"/events")
	if resp.StatusCode != 200 {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(events))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var e struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Bytes())
		}
		lines++
	}
	if lines != v.Events {
		t.Fatalf("streamed %d events, record says %d", lines, v.Events)
	}

	// Listing shows the run.
	_, list := getBody(t, ts.URL+"/v1/runs")
	var ls struct {
		Count int
		Runs  []RunView
	}
	if err := json.Unmarshal(list, &ls); err != nil || ls.Count != 1 || ls.Runs[0].ID != v.ID {
		t.Fatalf("listing wrong: err=%v body=%s", err, list)
	}
}

func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, first := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("first submit = %d %s", resp.StatusCode, first)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", h)
	}

	// A semantically identical config with defaults spelled out must
	// canonicalise onto the same cache entry.
	equivalent := `{"Workload":"NASA","JobCount":60,"LoadScale":1.0,"FailureNominal":500,"Scheduler":"balancing","Param":0.1,"Backfill":2}`
	for i, body := range []string{tinyRunBody, equivalent} {
		resp, repeat := postJSON(t, ts.URL+"/v1/runs", body)
		if resp.StatusCode != 200 {
			t.Fatalf("repeat %d = %d %s", i, resp.StatusCode, repeat)
		}
		if h := resp.Header.Get("X-Cache"); h != "hit" {
			t.Fatalf("repeat %d X-Cache = %q, want hit", i, h)
		}
		if !bytes.Equal(repeat, first) {
			t.Fatalf("repeat %d body differs from first:\n%s\n---\n%s", i, repeat, first)
		}
	}

	if hits, ok := metricValue(t, ts.URL, "service_cache_hits"); !ok || hits != 2 {
		t.Fatalf("service_cache_hits = %v, want 2", hits)
	}
	if misses, _ := metricValue(t, ts.URL, "service_cache_misses"); misses != 1 {
		t.Fatalf("service_cache_misses = %v, want 1", misses)
	}
	if done, _ := metricValue(t, ts.URL, "service_runs_completed"); done != 1 {
		t.Fatalf("service_runs_completed = %v, want 1", done)
	}
}

// TestQueueSaturation429: with one worker and a one-slot queue, the
// third concurrent distinct submission must be rejected with 429 and
// Retry-After, and counted in /metrics.
func TestQueueSaturation429(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s.execHook = func(ctx context.Context, r *run) (any, error) {
		started <- struct{}{}
		select {
		case <-release:
			return SimResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	}()

	submit := func(seed int) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"Workload":"NASA","JobCount":60,"Seed":%d}`, seed)
		return postJSON(t, ts.URL+"/v1/runs", body)
	}

	resp, b := submit(1) // dequeued by the worker, blocks in execHook
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %d %s", resp.StatusCode, b)
	}
	<-started // worker is now busy
	resp, b = submit(2)
	if resp.StatusCode != http.StatusAccepted { // occupies the queue slot
		t.Fatalf("submit 2 = %d %s", resp.StatusCode, b)
	}
	resp, b = submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3 = %d %s, want 429", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if rejected, _ := metricValue(t, ts.URL, "service_queue_rejected"); rejected != 1 {
		t.Fatalf("service_queue_rejected = %v, want 1", rejected)
	}
	// A duplicate of the queued config coalesces rather than occupying
	// another slot (and rather than being rejected).
	resp, b = submit(2)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get("X-Coalesced") != "true" {
		t.Fatalf("duplicate submit = %d coalesced=%q %s", resp.StatusCode, resp.Header.Get("X-Coalesced"), b)
	}
}

// TestClientDisconnectCancelsRun: a run created by a ?wait=1 client is
// cancelled when that client disconnects — verified end to end with a
// real simulation whose event loop observes the context.
func TestClientDisconnectCancelsRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// A large invariant-checked run: long enough that the disconnect
	// arrives mid-execution on any machine.
	slow := `{"Workload":"SDSC","JobCount":8000,"FailureNominal":2000,"CheckInvariants":true}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/runs?wait=1", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the run exists and is past queued, then disconnect.
	var id string
	deadline := time.Now().Add(15 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		_, b := getBody(t, ts.URL+"/v1/runs")
		var ls struct{ Runs []RunView }
		json.Unmarshal(b, &ls)
		if len(ls.Runs) > 0 && ls.Runs[0].State == StateRunning {
			id = ls.Runs[0].ID
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the waiting request to fail after disconnect")
	}

	for {
		if time.Now().After(deadline) {
			t.Fatal("run was not cancelled after client disconnect")
		}
		_, b := getBody(t, ts.URL+"/v1/runs/"+id)
		v := decodeView(t, b)
		if v.State.terminal() {
			if v.State != StateCanceled {
				t.Fatalf("terminal state = %s (%s), want canceled", v.State, v.Error)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, ts2 := getBody(t, ts.URL+"/metrics?format=json") // still serving
	_ = ts2
}

// TestGracefulDrain: draining finishes the in-flight run, refuses new
// work, and Close returns once the worker is idle.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.execHook = func(ctx context.Context, r *run) (any, error) {
		started <- struct{}{}
		select {
		case <-release:
			return SimResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := postJSON(t, ts.URL+"/v1/runs", tinyRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, b)
	}
	id := decodeView(t, b).ID
	<-started

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()

	// Draining: new submissions refused, in-flight run still running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL+"/v1/runs", `{"Workload":"SDSC","JobCount":70}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never refused new work (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v before the in-flight run finished", err)
	default:
	}

	close(release) // let the run finish
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	_, b = getBody(t, ts.URL+"/v1/runs/"+id)
	if v := decodeView(t, b); v.State != StateDone {
		t.Fatalf("drained run state = %s (%s), want done", v.State, v.Error)
	}
}

// TestStateJournalSurvivesRestart: completed runs reload from the
// state journal, and the warm cache still returns byte-identical
// bodies.
func TestStateJournalSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.jsonl")

	s1, err := New(Config{StatePath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, first := postJSON(t, ts1.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("submit = %d %s", resp.StatusCode, first)
	}
	v := decodeView(t, first)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ts1.Close()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{StatePath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close(ctx)

	resp, cached := postJSON(t, ts2.URL+"/v1/runs", tinyRunBody)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-restart submit = %d cache=%q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cached, first) {
		t.Fatalf("post-restart cache body differs:\n%s\n---\n%s", cached, first)
	}
	_, rec := getBody(t, ts2.URL+"/v1/runs/"+v.ID)
	if !bytes.Equal(rec, first) {
		t.Fatal("restored record differs")
	}
	_, events := getBody(t, ts2.URL+"/v1/runs/"+v.ID+"/events")
	if got := strings.Count(string(events), "\n"); got != v.Events {
		t.Fatalf("restored events = %d lines, want %d", got, v.Events)
	}
}

func TestFigureSweepEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"Options":{"JobCount":40,"Replications":1},"Workers":2}`
	resp, b := postJSON(t, ts.URL+"/v1/figures/fig3?wait=1", body)
	if resp.StatusCode != 200 {
		t.Fatalf("figure submit = %d %s", resp.StatusCode, b)
	}
	v := decodeView(t, b)
	if v.State != StateDone || v.Kind != kindFigure {
		t.Fatalf("figure run = %s/%s (%s)", v.Kind, v.State, v.Error)
	}
	var fr FigureResult
	if err := json.Unmarshal(v.Result, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Figure != "fig3" || len(fr.Tables) != 1 || len(fr.Tables[0].Series) != 3 {
		t.Fatalf("unexpected figure result: %+v", fr)
	}
	// Same options, different Workers: still a cache hit (parallelism
	// is excluded from the hash).
	resp, b2 := postJSON(t, ts.URL+"/v1/figures/fig3", `{"Options":{"JobCount":40,"Replications":1},"Workers":1}`)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(b2, b) {
		t.Fatalf("figure repeat: cache=%q identical=%v", resp.Header.Get("X-Cache"), bytes.Equal(b2, b))
	}

	resp, _ = postJSON(t, ts.URL+"/v1/figures/fig99", "{}")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown figure = %d, want 404", resp.StatusCode)
	}
}

func TestValidationErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 2000})
	cases := []struct {
		name, body string
		status     int
	}{
		{"unknown scheduler", `{"Scheduler":"quantum"}`, 400},
		{"oversized jobcount", `{"JobCount":5000}`, 400},
		{"bad machine", `{"Machine":"not-a-machine"}`, 400},
		{"oversized machine", `{"Machine":"65x4x8"}`, 400},
		{"overflowing machine", `{"Machine":"3037000500x3037000500x1"}`, 400},
		{"bad workload", `{"Workload":"KRONOS"}`, 400},
		{"bad finder", `{"Finder":"psychic"}`, 400},
		{"param range", `{"Param":1.5}`, 400},
		{"unknown contention", `{"JobCount":50,"Contention":"extreme"}`, 400},
		{"unknown backfill", `{"JobCount":50,"Backfill":7}`, 400},
		{"negative anneal seed", `{"JobCount":50,"Finder":"anneal","AnnealSeed":-1}`, 400},
		{"unknown field", `{"Bogus":1}`, 400},
		{"broken json", `{"JobCount":`, 400},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/runs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d %s, want %d", tc.name, resp.StatusCode, b, tc.status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no JSON error body: %s", tc.name, b)
		}
	}
	if submitted, _ := metricValue(t, ts.URL, "service_runs_submitted"); submitted != 0 {
		t.Fatalf("invalid requests consumed queue slots: submitted = %v", submitted)
	}
	_ = s

	resp, _ := getBody(t, ts.URL+"/v1/runs/r-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing run = %d, want 404", resp.StatusCode)
	}
}

// TestLiveEventStream: a subscriber attached while the run executes
// receives the event log incrementally and the stream terminates when
// the run does.
func TestLiveEventStream(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	step := make(chan struct{})
	s.execHook = func(ctx context.Context, r *run) (any, error) {
		r.events.Write([]byte(`{"seq":1,"kind":"arrival"}` + "\n"))
		<-step
		r.events.Write([]byte(`{"seq":2,"kind":"finish"}` + "\n"))
		return SimResult{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	}()

	resp, b := postJSON(t, ts.URL+"/v1/runs", tinyRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, b)
	}
	id := decodeView(t, b).ID

	streamResp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	rd := bufio.NewReader(streamResp.Body)

	line1, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(line1, `"arrival"`) {
		t.Fatalf("first streamed line: %q err=%v", line1, err)
	}
	close(step)
	line2, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(line2, `"finish"`) {
		t.Fatalf("second streamed line: %q err=%v", line2, err)
	}
	if _, err := rd.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream did not terminate with the run: %v", err)
	}
}

// TestParallelClientsRace hammers the cache, queue, listing and
// streaming endpoints from many goroutines; run with -race this is
// the concurrency regression test for the whole service.
func TestParallelClientsRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, CacheSize: 4})

	configs := make([]string, 6)
	for i := range configs {
		configs[i] = fmt.Sprintf(`{"Workload":"NASA","JobCount":40,"Seed":%d}`, i+1)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				cfg := configs[(c+i)%len(configs)]
				if i%3 == 0 {
					resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", cfg)
					resp.Body.Close()
				} else {
					resp, b := postJSON(t, ts.URL+"/v1/runs", cfg)
					resp.Body.Close()
					if resp.StatusCode == http.StatusAccepted || resp.StatusCode == 200 {
						if id := decodeView(t, b).ID; id != "" {
							r1, _ := getBody(t, ts.URL+"/v1/runs/"+id)
							r1.Body.Close()
							r2, _ := getBody(t, ts.URL+"/v1/runs/"+id+"/events")
							r2.Body.Close()
						}
					}
				}
				if i%4 == 0 {
					r, _ := getBody(t, ts.URL+"/v1/runs")
					r.Body.Close()
					m, _ := getBody(t, ts.URL+"/metrics")
					m.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()

	// Every terminal run must be done (no failures slipped through).
	_, b := getBody(t, ts.URL+"/v1/runs")
	var ls struct{ Runs []RunView }
	if err := json.Unmarshal(b, &ls); err != nil {
		t.Fatal(err)
	}
	for _, r := range ls.Runs {
		if r.State == StateFailed {
			t.Fatalf("run %s failed: %s", r.ID, r.Error)
		}
	}
	if hits, _ := metricValue(t, ts.URL, "service_cache_hits"); hits == 0 {
		t.Fatal("expected cache hits under the hammer")
	}
}

// TestTraceEndpointServesCausalTrace checks that a completed sim run's
// causal trace streams back as parseable trace records: a meta record
// naming the run, the per-job lifecycle, and (because the service
// tracer enables wall spans) the build/sim spans.
func TestTraceEndpointServesCausalTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("wait submit = %d %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	if v.Traces == 0 {
		t.Fatal("completed run reports zero trace records")
	}

	resp, raw := getBody(t, ts.URL+"/v1/runs/"+v.ID+"/trace")
	if resp.StatusCode != 200 {
		t.Fatalf("trace = %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content-type = %q", ct)
	}
	recs, err := trace.ReadLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(recs) != v.Traces {
		t.Fatalf("streamed %d trace records, record says %d", len(recs), v.Traces)
	}
	if recs[0].Cat != "meta" || recs[0].Extra["run"] != v.ID {
		t.Fatalf("first record is not the run meta: %+v", recs[0])
	}
	names := map[string]int{}
	spans := 0
	for _, r := range recs {
		names[r.Cat+"/"+r.Name]++
		if r.Span {
			spans++
		}
	}
	for _, want := range []string{"job/submit", "job/allocate", "job/start", "job/finish", "build/build", "sim/run"} {
		if names[want] == 0 {
			t.Fatalf("trace lacks %q records; have %v", want, names)
		}
	}
	if spans == 0 {
		t.Fatal("service trace carries no wall spans")
	}

	// No simulation in flight: the flight dump endpoint reports so.
	resp, flight := getBody(t, ts.URL+"/debug/flight")
	if resp.StatusCode != 200 || !bytes.Contains(flight, []byte("no flight recorders registered")) {
		t.Fatalf("flight dump = %d %q", resp.StatusCode, flight)
	}
}

// TestFlightDumpDuringRun holds a run in flight via the exec hook and
// checks /debug/flight surfaces its registered recorder.
func TestFlightDumpDuringRun(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1})
	s.execHook = func(ctx context.Context, r *run) (any, error) {
		fr := trace.NewFlightRecorder(4, nil, "run "+r.id)
		fr.Record(trace.FlightEvent{T: 1, Seq: 1, Kind: "arrival", Job: 7})
		trace.RegisterFlight(fr)
		defer trace.UnregisterFlight(fr)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return SimResult{}, nil
	}

	resp, body := postJSON(t, ts.URL+"/v1/runs", tinyRunBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	id := decodeView(t, body).ID

	// Wait for the run to be in flight, then dump.
	deadline := time.Now().Add(5 * time.Second)
	var flight []byte
	for {
		_, flight = getBody(t, ts.URL+"/debug/flight")
		if bytes.Contains(flight, []byte("flight recorder dump: run "+id)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight dump never showed run %s:\n%s", id, flight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bytes.Contains(flight, []byte("kind=arrival")) {
		t.Fatalf("dump lacks recorded event:\n%s", flight)
	}
	close(release)
}

// TestMetricsDuringConcurrentCompletion scrapes /metrics continuously
// while distinct runs complete on a multi-worker pool, asserting the
// exposition is never torn mid-drain and the completion counter is
// monotone across scrapes — the consistency contract a Prometheus
// scraper depends on. With -race this doubles as the regression test
// for telemetry updates racing snapshot serialization inside the
// service.
func TestMetricsDuringConcurrentCompletion(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	const runs = 12
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"Workload":"NASA","JobCount":40,"Seed":%d}`, i+1)
				resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", body)
				resp.Body.Close()
			}(i)
		}
		wg.Wait()
	}()

	var last float64 = -1
	for alive := true; alive; {
		select {
		case <-done:
			alive = false // one final scrape below observes the end state
		default:
		}
		resp, b := getBody(t, ts.URL+"/metrics")
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("scrape = %d", resp.StatusCode)
		}
		// Torn expositions show up as a missing terminal newline or a
		// value line that doesn't parse.
		if len(b) == 0 || b[len(b)-1] != '\n' {
			t.Fatalf("truncated exposition: %q", b)
		}
		completed := 0.0
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) == 2 && f[0] == "service_runs_completed" {
				if _, err := fmt.Sscanf(f[1], "%g", &completed); err != nil {
					t.Fatalf("unparseable counter mid-drain: %q", line)
				}
			}
		}
		if completed < last {
			t.Fatalf("service_runs_completed moved backwards: %g after %g", completed, last)
		}
		last = completed
	}
	if last != runs {
		t.Fatalf("final service_runs_completed = %g, want %d", last, runs)
	}
}
