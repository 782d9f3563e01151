package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"bgsched/internal/experiments"
	"bgsched/internal/telemetry"
	"bgsched/internal/trace"
)

// buildHandler wires the route table and the middleware chain:
// access logging (with request IDs) around concurrency limiting
// around the mux.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", telemetry.Handler(s.reg))
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelRun)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleStreamEvents)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleStreamTrace)
	mux.HandleFunc("POST /v1/runs/{id}/branch", s.handleSubmitBranch)
	mux.HandleFunc("POST /v1/figures/{fig}", s.handleSubmitFigure)
	mux.HandleFunc("GET /debug/flight", s.handleFlightDump)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Outside-in: access logging sees every outcome, panic recovery
	// turns handler (and injected) panics into counted 500s, the
	// limiter sheds load, and the chaos layer — a no-op without an
	// injector — degrades whatever the limiter admitted.
	return s.accessLogged(s.recovered(s.limited(s.chaotic(mux))))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// journalDegradedAfter is how many consecutive journal-append failures
// flip /readyz to degraded: one failed fsync can be a blip, a streak
// means completed results are not being persisted and a restart would
// lose them.
const journalDegradedAfter = 3

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if streak := s.journalFails.Load(); streak >= journalDegradedAfter {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: state journal failing (%d consecutive append errors)\n", streak)
		return
	}
	io.WriteString(w, "ready\n")
}

// handleSubmitRun accepts a simulation request: the body is a JSON
// experiments.RunConfig (Go field names as keys, unknown fields
// rejected). The config is canonicalised before hashing, so
// default-equivalent submissions share one cache entry.
func (s *Server) handleSubmitRun(w http.ResponseWriter, req *http.Request) {
	var cfg experiments.RunConfig
	if !s.decodeBody(w, req, &cfg) {
		return
	}
	cfg = cfg.Canonical()
	if err := s.validateRunConfig(cfg); err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	hash := telemetry.ConfigHash(struct {
		Kind   string
		Config experiments.RunConfig
	}{kindSim, cfg})
	s.submit(w, req, kindSim, hash, cfg)
}

// handleSubmitFigure accepts a paper-figure sweep request for
// /v1/figures/{fig}; the body is a FigureRequest ({} for defaults).
func (s *Server) handleSubmitFigure(w http.ResponseWriter, req *http.Request) {
	spec, err := experiments.SpecByID(req.PathValue("fig"))
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	var fr FigureRequest
	if !s.decodeBody(w, req, &fr) {
		return
	}
	fr.Options = fr.Options.Canonical()
	if err := s.validateFigureOptions(fr.Options); err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if fr.Workers < 0 {
		fr.Workers = 0
	}
	if fr.Workers > maxSweepWorkers {
		fr.Workers = maxSweepWorkers
	}
	if fr.Workers == 0 {
		fr.Workers = 1 // inside the service, sweep points default to sequential
	}
	cfg := figureConfig{Figure: spec.ID, Options: fr.Options, workers: fr.Workers}
	// Workers is excluded from the hash on purpose: parallelism changes
	// wall-clock, never the tables (the engine fills disjoint slots).
	hash := telemetry.ConfigHash(struct {
		Kind    string
		Figure  string
		Options experiments.Options
	}{kindFigure, spec.ID, fr.Options})
	s.submit(w, req, kindFigure, hash, cfg)
}

// submit is the shared submission path: serve a cache hit
// byte-identically, coalesce onto an in-flight identical run, or
// enqueue a fresh one; with ?wait=1 block until the run is terminal
// (and cancel it if this client created it and disconnects first).
func (s *Server) submit(w http.ResponseWriter, req *http.Request, kind, hash string, cfg any) {
	wait := isTruthy(req.URL.Query().Get("wait"))

	s.mu.Lock()
	if hit, ok := s.cache.Get(hash); ok {
		// The chaos cache seam can force a miss: the run re-executes and
		// determinism demands the replayed result be byte-identical —
		// exactly the property a soak verifies. (Lock order s.mu → chaos
		// site mutex; nothing takes them the other way.)
		if s.cfg.Chaos != nil && s.cfg.Chaos.CacheDrop() {
			w.Header().Set("X-Chaos", "cache-drop")
		} else {
			body := hit.body
			s.mu.Unlock()
			s.m.cacheHits.Inc()
			w.Header().Set("X-Cache", "hit")
			s.writeJSONBytes(w, http.StatusOK, body)
			return
		}
	}
	r := s.byHash[hash]
	if r != nil {
		if wait {
			r.waiters++
		}
		s.mu.Unlock()
		s.m.runsCoalesced.Inc()
		w.Header().Set("X-Coalesced", "true")
	} else {
		s.mu.Unlock()
		s.m.cacheMisses.Inc()
		var err error
		r, err = s.enqueue(kind, hash, cfg, wait)
		switch {
		case errors.Is(err, errQueueFull):
			s.m.queueRejected.Inc()
			s.writeTooMany(w, "run queue full, retry later")
			return
		case errors.Is(err, errDraining):
			s.writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		case err != nil:
			s.writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Location", "/v1/runs/"+r.id)

	if !wait {
		s.mu.Lock()
		view := s.viewLocked(r, false)
		s.mu.Unlock()
		s.writeJSON(w, http.StatusAccepted, view)
		return
	}
	select {
	case <-r.done:
		s.mu.Lock()
		body := r.body
		s.mu.Unlock()
		s.writeJSONBytes(w, http.StatusOK, body)
	case <-req.Context().Done():
		// The waiting client went away. If it was the run's creator and
		// nobody else is waiting, the run's results have no audience:
		// cancel it so the worker (or the queue slot) frees up.
		s.mu.Lock()
		r.waiters--
		abandon := r.ephemeral && r.waiters <= 0 && !r.state.terminal()
		s.mu.Unlock()
		if abandon {
			s.cancelRun(r, "client disconnected")
		}
	}
}

func (s *Server) handleListRuns(w http.ResponseWriter, req *http.Request) {
	filter := State(req.URL.Query().Get("state"))
	s.mu.Lock()
	views := make([]RunView, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- { // newest first
		r := s.order[i]
		if filter != "" && r.state != filter {
			continue
		}
		views = append(views, s.viewLocked(r, false))
	}
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, struct {
		Count int       `json:"count"`
		Runs  []RunView `json:"runs"`
	}{len(views), views})
}

func (s *Server) handleGetRun(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.writeErr(w, http.StatusNotFound, "no such run")
		return
	}
	s.mu.Lock()
	body := r.body
	var view RunView
	if body == nil {
		view = s.viewLocked(r, true)
	}
	s.mu.Unlock()
	if body != nil {
		s.writeJSONBytes(w, http.StatusOK, body)
		return
	}
	s.writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancelRun(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.writeErr(w, http.StatusNotFound, "no such run")
		return
	}
	if !s.cancelRun(r, "canceled by client") {
		s.writeErr(w, http.StatusConflict, "run already finished")
		return
	}
	s.mu.Lock()
	view := s.viewLocked(r, false)
	s.mu.Unlock()
	s.writeJSON(w, http.StatusOK, view)
}

// handleStreamEvents serves the run's JSONL event log as NDJSON,
// replaying what exists and following live output until the run
// finishes or the client disconnects.
func (s *Server) handleStreamEvents(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.writeErr(w, http.StatusNotFound, "no such run")
		return
	}
	s.streamNDJSON(w, req, r.events)
}

// handleStreamTrace serves the run's causal trace (internal/trace
// NDJSON records) with the same replay-and-follow semantics as the
// event stream. Runs restored from the state journal have no retained
// trace.
func (s *Server) handleStreamTrace(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(req.PathValue("id"))
	if r == nil {
		s.writeErr(w, http.StatusNotFound, "no such run")
		return
	}
	if r.traces == nil {
		s.writeErr(w, http.StatusNotFound, "no trace retained for this run")
		return
	}
	s.streamNDJSON(w, req, r.traces)
}

// handleFlightDump writes a plain-text dump of every registered kernel
// flight recorder — one per in-flight simulation run — for live
// incident inspection without waiting for a SIGQUIT.
func (s *Server) handleFlightDump(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	if n := trace.DumpFlights(w, "debug endpoint"); n == 0 {
		io.WriteString(w, "no flight recorders registered (no simulation in flight)\n")
	}
}

// streamNDJSON replays a run's byte log as NDJSON and follows live
// output until the log closes or the client disconnects.
func (s *Server) streamNDJSON(w http.ResponseWriter, req *http.Request, buf *eventBuffer) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	s.m.streamsActive.Add(1)
	defer s.m.streamsActive.Add(-1)

	cursor := 0
	for {
		// wait hands back every byte past the cursor, so when closed is
		// set the returned batch is the stream's tail.
		chunk, next, closed, err := buf.wait(req.Context(), cursor)
		if err != nil {
			return // client gone
		}
		if len(chunk) > 0 {
			if _, werr := w.Write(chunk); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if closed {
			return
		}
		cursor = next
	}
}

// lookup resolves a run id.
func (s *Server) lookup(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// maxSweepWorkers bounds per-request parallelism so one client cannot
// monopolise the host.
const maxSweepWorkers = 4

// validateRunConfig rejects configs that are malformed or outsized
// before they consume a queue slot: this server's job cap, then the
// rules every run config must pass. cfg is already canonical.
func (s *Server) validateRunConfig(cfg experiments.RunConfig) error {
	if cfg.JobCount < 1 || cfg.JobCount > s.cfg.MaxJobs {
		return fmt.Errorf("JobCount must be in [1, %d], got %d", s.cfg.MaxJobs, cfg.JobCount)
	}
	return cfg.Validate()
}

// validateFigureOptions rejects malformed or outsized sweep options:
// this server's job and replication caps, then the rules every figure
// request must pass. opt is already canonical.
func (s *Server) validateFigureOptions(opt experiments.Options) error {
	if opt.JobCount < 1 || opt.JobCount > s.cfg.MaxJobs {
		return fmt.Errorf("JobCount must be in [1, %d], got %d", s.cfg.MaxJobs, opt.JobCount)
	}
	if opt.Replications < 1 || opt.Replications > 16 {
		return fmt.Errorf("Replications must be in [1, 16], got %d", opt.Replications)
	}
	return opt.Validate()
}

// decodeBody strictly decodes the JSON request body into v, answering
// 4xx itself on failure. An empty body decodes as all defaults.
func (s *Server) decodeBody(w http.ResponseWriter, req *http.Request, v any) bool {
	body := http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case errors.Is(err, io.EOF):
		return true // empty body: defaults
	case err != nil:
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeErr(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		s.writeErr(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

func isTruthy(v string) bool {
	switch v {
	case "1", "true", "yes":
		return true
	}
	return false
}

// writeJSON marshals v as the response with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	s.writeJSONBytes(w, status, b)
}

// writeJSONBytes serves pre-rendered JSON bytes verbatim (newline
// terminated for curl friendliness).
func (s *Server) writeJSONBytes(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	if len(b) == 0 || b[len(b)-1] != '\n' {
		io.WriteString(w, "\n")
	}
}

// writeErr serves a JSON error object. (5xx responses are counted by
// the access-log middleware, which sees every handler's status.)
func (s *Server) writeErr(w http.ResponseWriter, status int, msg string) {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	s.writeJSONBytes(w, status, b)
}
