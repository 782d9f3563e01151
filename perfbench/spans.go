package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Cause
// is the id of the span that made the call (0 for a root). Calls too
// frequent to record one by one are aggregated into a single span per
// run: Count calls taking Sum in total, placed at their parent's end.
type span struct {
	ID    int           `json:"id"`
	Cause int           `json:"cause,omitempty"`
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Count int64         `json:"count,omitempty"`
	Sum   time.Duration `json:"sum_ns,omitempty"`
}

// spanLog keeps the traced pass's spans in memory until write. A nil
// *spanLog records nothing, so the untraced pass runs the same code.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span caused by cause and returns its id.
func (l *spanLog) begin(name string, cause int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Cause: cause, Name: name, Start: time.Since(l.epoch)})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = time.Since(l.epoch)
	l.mu.Unlock()
}

// aggregate records count calls of name, sum in total, made inside span
// cause.
func (l *spanLog) aggregate(name string, cause int, count int64, sum time.Duration) {
	if l == nil || count == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	at := l.spans[cause-1].End
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Cause: cause, Name: name,
		Start: at, End: at, Count: count, Sum: sum})
}

// write stores the spans as one JSON array in dir/name.
func (l *spanLog) write(dir, name string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
