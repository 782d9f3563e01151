package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgsched/internal/experiments"
)

// persistedRun is one line of the service state journal: the rendered
// terminal record (served verbatim after restore, preserving the
// byte-identical cache-hit guarantee across restarts) plus the event
// lines the run produced. CRC is the record's own checksum (CRC-32C
// over the line marshalled with CRC empty), so corruption that still
// parses as JSON — a flipped digit, a spliced tail — is caught at
// restore instead of being served as a byte-identical "cached" result.
type persistedRun struct {
	Type   string          `json:"type"` // always "run"
	Body   json.RawMessage `json:"body"`
	Events []string        `json:"events,omitempty"`
	CRC    string          `json:"crc,omitempty"`
}

// checksum computes the record's CRC-32C with the CRC field cleared.
// The round trip is exact: Body is a RawMessage (bytes preserved
// verbatim) and Events re-encode identically, so a record verified at
// restore re-marshals to the same base bytes it was checksummed over.
func (p persistedRun) checksum() (string, error) {
	p.CRC = ""
	base, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.Checksum(base, crcTable)), nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// stateJournal is the append-only JSONL store of completed runs,
// mirroring the resilience package's journal discipline: one synced
// write per record, a tolerant reader that skips a torn final line.
type stateJournal struct {
	mu sync.Mutex
	f  *os.File
	// fault, when non-nil, is the chaos seam: consulted before every
	// append, a returned error fails the append without touching the
	// file (the injected shapes are write failure and disk-full).
	fault func() error
}

// restoreReport summarises one journal load: how many lines were
// skipped as malformed (torn tail, non-JSON) or as checksum failures
// (bit flips that still parse).
type restoreReport struct {
	malformed int
	badCRC    int
}

// openStateJournal loads the existing journal at path (if any) and
// opens it for appending. Corrupt or torn records are skipped, never
// fatal: a journal that got damaged must degrade to a smaller warm
// cache, not block startup.
func openStateJournal(path string) (*stateJournal, []persistedRun, restoreReport, error) {
	var restored []persistedRun
	var report restoreReport
	if data, err := os.ReadFile(path); err == nil {
		restored, report = parseStateJournal(data)
	} else if !os.IsNotExist(err) {
		return nil, nil, report, fmt.Errorf("service: read state journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, report, fmt.Errorf("service: open state journal: %w", err)
	}
	return &stateJournal{f: f}, restored, report, nil
}

// parseStateJournal decodes journal lines, skipping malformed ones
// (the final line may be torn by a crash mid-append) and ones whose
// per-record checksum no longer matches (bit flips, spliced tails).
// Records written before checksumming existed (no crc field) are
// accepted as-is.
func parseStateJournal(data []byte) ([]persistedRun, restoreReport) {
	var out []persistedRun
	var report restoreReport
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var p persistedRun
		if err := json.Unmarshal(line, &p); err != nil || p.Type != "run" || len(p.Body) == 0 {
			report.malformed++
			continue
		}
		if p.CRC != "" {
			want, err := p.checksum()
			if err != nil || want != p.CRC {
				report.badCRC++
				continue
			}
		}
		out = append(out, p)
	}
	return out, report
}

// append durably records one completed run. Safe on a nil journal.
func (j *stateJournal) append(p persistedRun) error {
	if j == nil {
		return nil
	}
	if j.fault != nil {
		if err := j.fault(); err != nil {
			return err
		}
	}
	p.Type = "run"
	crc, err := p.checksum()
	if err != nil {
		return fmt.Errorf("service: journal encode: %w", err)
	}
	p.CRC = crc
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("service: journal encode: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("service: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal sync: %w", err)
	}
	return nil
}

// close closes the journal file. Safe on nil.
func (j *stateJournal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// restore rebuilds terminal runs from journal records: they re-enter
// the registry and (successful ones) the cache, and their event logs
// are replayable, so a restarted server answers for work done before
// the restart. Called from New before the workers start.
func (s *Server) restore(records []persistedRun) {
	for _, p := range records {
		var v RunView
		if err := json.Unmarshal(p.Body, &v); err != nil || v.ID == "" || !v.State.terminal() {
			continue
		}
		r := &run{
			id:        v.ID,
			kind:      v.Kind,
			hash:      v.ConfigHash,
			state:     v.State,
			errMsg:    v.Error,
			attempts:  v.Attempts,
			submitted: v.Submitted,
			result:    v.Result,
			body:      append([]byte(nil), p.Body...),
			events:    newEventBuffer(s.cfg.MaxEventBytes),
			done:      make(chan struct{}),
		}
		// Re-hydrate the typed config of restored simulation runs, so a
		// journal-restored parent can still be branched from.
		if v.Kind == kindSim && v.Config != nil {
			if cb, err := json.Marshal(v.Config); err == nil {
				var rc experiments.RunConfig
				if err := json.Unmarshal(cb, &rc); err == nil {
					r.cfg = rc
				}
			}
		}
		if v.Started != nil {
			r.started = *v.Started
		}
		if v.Finished != nil {
			r.finished = *v.Finished
		} else {
			r.finished = time.Now()
		}
		r.ctx, r.cancel = context.WithCancel(s.baseCtx)
		r.cancel() // terminal: nothing to cancel
		close(r.done)
		r.events.replay(p.Events)

		if prev, ok := s.runs[r.id]; ok {
			// Duplicate id in the journal (shouldn't happen): keep the
			// later record.
			s.removeFromOrder(prev)
		}
		s.runs[r.id] = r
		s.order = append(s.order, r)
		if r.state == StateDone {
			s.cache.Add(r.hash, r)
		}
		if n := idNumber(r.id); n > s.idSeq {
			s.idSeq = n
		}
	}
	s.enforceRetentionLocked()
}

// idNumber extracts the numeric suffix of "r-NNNNNN" ids (0 when the
// id has another shape).
func idNumber(id string) int64 {
	rest, ok := strings.CutPrefix(id, "r-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// removeFromOrder drops r from the submission-order slice.
func (s *Server) removeFromOrder(victim *run) {
	for i, r := range s.order {
		if r == victim {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

// enforceRetentionLocked evicts the oldest terminal runs beyond
// Config.MaxRuns from the registry (and cache). Queued and running
// runs are never evicted. Caller holds s.mu.
func (s *Server) enforceRetentionLocked() {
	if len(s.order) <= s.cfg.MaxRuns {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxRuns
	for _, r := range s.order {
		if excess > 0 && r.state.terminal() {
			delete(s.runs, r.id)
			if hit, _ := s.cache.Get(r.hash); hit == r {
				s.cache.Remove(r.hash)
			}
			excess--
			continue
		}
		kept = append(kept, r)
	}
	s.order = kept
}
