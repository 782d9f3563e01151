package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"bgsched/internal/chaos"
)

// stubChaos is a hand-steered FaultInjector for tests that need one
// seam to fail on command.
type stubChaos struct {
	journalFail atomic.Bool
	execFails   atomic.Int64 // remaining Exec calls to fail
}

func (c *stubChaos) Request() chaos.RequestFault { return chaos.RequestFault{} }
func (c *stubChaos) CacheDrop() bool             { return false }
func (c *stubChaos) Exec() error {
	if c.execFails.Add(-1) >= 0 {
		return chaos.ErrExec
	}
	return nil
}
func (c *stubChaos) Journal() error {
	if c.journalFail.Load() {
		return chaos.ErrJournalWrite
	}
	return nil
}

func TestRetryAfterAdaptsToQueueAndRunDuration(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	}()

	// No completed runs, empty queue: floor of one second.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("idle retryAfterSeconds = %d, want 1", got)
	}
	// Mean run duration 4s, 3 queued, 2 workers: ceil(4*4/2) = 8.
	s.m.runDuration.Observe(4.0)
	s.m.queueDepth.Add(3)
	if got := s.retryAfterSeconds(); got != 8 {
		t.Fatalf("retryAfterSeconds = %d, want 8", got)
	}
	// Pathological durations clamp at 60.
	s.m.runDuration.Observe(10000)
	if got := s.retryAfterSeconds(); got != 60 {
		t.Fatalf("clamped retryAfterSeconds = %d, want 60", got)
	}
}

// TestQueueFull429CarriesAdaptiveRetryAfter pins the end-to-end header:
// with one blocked worker and two queued runs (no completed durations,
// so the 1s default mean), the advice is ceil((2+1)*1/1) = 3 seconds.
func TestQueueFull429CarriesAdaptiveRetryAfter(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 2})
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

	submit := func(seed int) *http.Response {
		body := fmt.Sprintf(`{"Workload":"NASA","JobCount":60,"Seed":%d}`, seed)
		resp, _ := postJSON(t, ts.URL+"/v1/runs", body)
		return resp
	}
	if resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %d", resp.StatusCode)
	}
	<-started // worker busy; queue drains no further
	for seed := 2; seed <= 3; seed++ {
		if resp := submit(seed); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", seed, resp.StatusCode)
		}
	}
	resp := submit(4)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 4 = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3 (depth 2, mean 1s, 1 worker)", ra)
	}
	if got := strconv.Itoa(s.retryAfterSeconds()); got != "3" {
		t.Fatalf("retryAfterSeconds = %s", got)
	}
}

func TestChaosInjectedErrorResponses(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 1, ErrorP: 1})
	_, ts := newTestServer(t, Config{Chaos: inj})

	resp, _ := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode < 500 {
		t.Fatalf("chaos error status = %d, want 5xx", resp.StatusCode)
	}
	if resp.Header.Get("X-Chaos") != "error" {
		t.Fatalf("injected error missing X-Chaos header")
	}
	// Operational probes are exempt: health stays honest mid-chaos.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz under chaos = %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/metrics"); resp.StatusCode != 200 {
		t.Fatalf("metrics under chaos = %d", resp.StatusCode)
	}
	if n, _ := scrapeMetric(t, ts.URL, "service_chaos_requests_faulted"); n < 1 {
		t.Fatalf("service_chaos_requests_faulted = %v, want >= 1", n)
	}
}

func TestChaosInjectedPanicIsContained(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 2, PanicP: 1})
	_, ts := newTestServer(t, Config{Chaos: inj})

	resp, _ := postJSON(t, ts.URL+"/v1/runs", tinyRunBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic = %d, want 500", resp.StatusCode)
	}
	if resp.Header.Get("X-Chaos") != "panic" {
		t.Fatal("injected panic missing X-Chaos header")
	}
	if n, _ := scrapeMetric(t, ts.URL, "service_http_panics"); n < 1 {
		t.Fatalf("service_http_panics = %v, want >= 1", n)
	}
	// The server survives: with the injector exhausted of panics it
	// would still panic every request, so assert on a probe instead.
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz after contained panics = %d", resp.StatusCode)
	}
}

// resultSummary extracts the simulated-time summary from a RunView
// result. That is the deterministic portion of a result: the embedded
// telemetry snapshot carries wall-clock timing histograms and
// build-cache hit/miss counters, which legitimately differ between
// executions of the same config. Corruption checks (here and in
// bgload) therefore compare summaries, not whole result payloads.
func resultSummary(t *testing.T, result []byte) string {
	t.Helper()
	var r struct {
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal(result, &r); err != nil || len(r.Summary) == 0 {
		t.Fatalf("result has no summary (err=%v):\n%s", err, result)
	}
	return string(r.Summary)
}

// TestChaosCacheDropForcesIdenticalReplay: a forced cache miss
// re-executes the run, and simulation determinism makes the replayed
// summary identical — the property the soak's corruption check rests
// on.
func TestChaosCacheDropForcesIdenticalReplay(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, CacheDropP: 1})
	_, ts := newTestServer(t, Config{Chaos: inj})

	resp, first := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("first submit = %d %s", resp.StatusCode, first)
	}
	v1 := decodeView(t, first)
	if v1.State != StateDone {
		t.Fatalf("first run state = %s (%s)", v1.State, v1.Error)
	}

	resp, second := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("second submit = %d %s", resp.StatusCode, second)
	}
	if resp.Header.Get("X-Chaos") != "cache-drop" {
		t.Fatalf("second submit not marked cache-drop (X-Cache=%q)", resp.Header.Get("X-Cache"))
	}
	v2 := decodeView(t, second)
	if v2.State != StateDone {
		t.Fatalf("replayed run state = %s (%s)", v2.State, v2.Error)
	}
	if v2.ID == v1.ID {
		t.Fatal("cache drop did not create a fresh run")
	}
	if s1, s2 := resultSummary(t, v1.Result), resultSummary(t, v2.Result); s1 != s2 {
		t.Fatalf("forced re-execution diverged:\n%s\n---\n%s", s1, s2)
	}
}

// TestChaosExecFaultRetriesThenRecovers: an injected execution fault
// fails one attempt; the server's retry machinery reruns it and the
// run still completes.
func TestChaosExecFaultRetriesThenRecovers(t *testing.T) {
	st := &stubChaos{}
	st.execFails.Store(1) // fail exactly the first attempt
	_, ts := newTestServer(t, Config{Retries: 2, Chaos: st})

	resp, body := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != 200 {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s), want done despite injected exec faults", v.State, v.Error)
	}
	if v.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (injected fault consumed one)", v.Attempts)
	}
}

// TestJournalFailureStreakDegradesReadiness covers the journal_errors
// counter and the /readyz flip: three consecutive append failures mark
// the service degraded; one success clears it.
func TestJournalFailureStreakDegradesReadiness(t *testing.T) {
	st := &stubChaos{}
	st.journalFail.Store(true)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{StatePath: filepath.Join(dir, "state.jsonl"), Chaos: st})

	submit := func(seed int) RunView {
		body := fmt.Sprintf(`{"Workload":"NASA","JobCount":60,"Seed":%d}`, seed)
		resp, b := postJSON(t, ts.URL+"/v1/runs?wait=1", body)
		if resp.StatusCode != 200 {
			t.Fatalf("submit seed %d = %d %s", seed, resp.StatusCode, b)
		}
		v := decodeView(t, b)
		if v.State != StateDone {
			t.Fatalf("seed %d state = %s (%s)", seed, v.State, v.Error)
		}
		return v
	}

	for seed := 1; seed <= journalDegradedAfter; seed++ {
		submit(seed)
	}
	if n, _ := scrapeMetric(t, ts.URL, "service_journal_errors"); n != journalDegradedAfter {
		t.Fatalf("service_journal_errors = %v, want %d", n, journalDegradedAfter)
	}
	resp, b := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(b, []byte("degraded")) {
		t.Fatalf("readyz with failing journal = %d %q, want 503 degraded", resp.StatusCode, b)
	}

	// The journal heals; the next persisted run resets the streak.
	st.journalFail.Store(false)
	submit(99)
	resp, _ = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Fatalf("readyz after journal recovery = %d, want 200", resp.StatusCode)
	}
}

// TestJournalRestoreSkipsCorruptTail covers the CRC hardening end to
// end: a record corrupted on disk (still valid JSON) and a torn tail
// are both skipped at restore — startup succeeds, intact records keep
// their warm-cache hits, and the corrupted one re-executes.
func TestJournalRestoreSkipsCorruptTail(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "state.jsonl")
	cfgA := `{"Workload":"NASA","JobCount":60,"Seed":11}`
	cfgB := `{"Workload":"NASA","JobCount":60,"Seed":22}`

	s1, err := New(Config{StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var bodyA, bodyB []byte
	for _, c := range []struct {
		cfg string
		dst *[]byte
	}{{cfgA, &bodyA}, {cfgB, &bodyB}} {
		resp, b := postJSON(t, ts1.URL+"/v1/runs?wait=1", c.cfg)
		if resp.StatusCode != 200 {
			t.Fatalf("submit = %d %s", resp.StatusCode, b)
		}
		*c.dst = b
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Corrupt run A's record in a way that still parses as JSON (the
	// id mutates), and tear the file's tail mid-append.
	data, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(data, []byte(`r-000001`), []byte(`r-000091`), 1)
	if bytes.Equal(corrupted, data) {
		t.Fatalf("journal does not contain r-000001:\n%s", data)
	}
	corrupted = append(corrupted, []byte(`{"type":"run","body":{"id":"r-00`)...)
	if err := os.WriteFile(state, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{StatePath: state})
	if err != nil {
		t.Fatalf("restore over corrupt journal failed startup: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Close(ctx)
	}()

	if n, _ := scrapeMetric(t, ts2.URL, "service_journal_restore_skipped"); n != 2 {
		t.Fatalf("service_journal_restore_skipped = %v, want 2 (1 bad CRC + 1 torn)", n)
	}
	// Run B survived byte-identically...
	resp, got := postJSON(t, ts2.URL+"/v1/runs", cfgB)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("run B after restore: status %d X-Cache=%q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, bodyB) {
		t.Fatal("run B cache hit not byte-identical after corrupt-tail restore")
	}
	// ...while run A's poisoned record was refused, so it re-executes
	// rather than serving corrupt bytes.
	resp, got = postJSON(t, ts2.URL+"/v1/runs?wait=1", cfgA)
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") == "hit" {
		t.Fatalf("run A after restore: status %d X-Cache=%q, want re-execution", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	va, va2 := decodeView(t, bodyA), decodeView(t, got)
	if resultSummary(t, va.Result) != resultSummary(t, va2.Result) {
		t.Fatal("re-executed run A summary diverged from the original")
	}
}

// TestParseStateJournalBitFlip pins the checksum unit behaviour:
// a single flipped byte that keeps the line valid JSON is caught by
// the per-record CRC; truncation is caught as a malformed line.
func TestParseStateJournalBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, _, _, err := openStateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := persistedRun{Body: []byte(`{"id":"r-000001","state":"done","value":12345}`), Events: []string{"e1", "e2"}}
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if got, report := parseStateJournal(data); len(got) != 1 || report != (restoreReport{}) {
		t.Fatalf("clean parse: %d records, report %+v", len(got), report)
	}
	flipped := bytes.Replace(data, []byte("12345"), []byte("12845"), 1)
	if got, report := parseStateJournal(flipped); len(got) != 0 || report.badCRC != 1 {
		t.Fatalf("bit-flipped parse: %d records, report %+v, want badCRC=1", len(got), report)
	}
	truncated := data[:len(data)/2]
	if got, report := parseStateJournal(truncated); len(got) != 0 || report.malformed != 1 {
		t.Fatalf("truncated parse: %d records, report %+v, want malformed=1", len(got), report)
	}
	// Pre-checksum records (no crc field) are still accepted.
	legacy := []byte(`{"type":"run","body":{"id":"r-000009","state":"done"}}` + "\n")
	if got, report := parseStateJournal(legacy); len(got) != 1 || report != (restoreReport{}) {
		t.Fatalf("legacy parse: %d records, report %+v", len(got), report)
	}
}
