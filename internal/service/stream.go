package service

import (
	"bytes"
	"context"
	"sync"
)

// eventBuffer is one run's line-counted byte log: the io.Writer its
// JSONL event log (or its causal trace) is written into, replayed and
// followed by any number of stream subscribers. The executing worker
// writes; HTTP streams read concurrently.
//
// Every Write holds whole newline-terminated lines — the simulator's
// event logger and the tracer write one record per call. Written bytes
// are never modified, so a slice handed out by wait stays valid while
// later writes append and after a reset, which starts a new array.
//
// Retention is byte-bounded: a write that would take the retained line
// bytes (newlines excluded) past maxBytes is dropped whole and its
// lines are counted, rather than growing without limit.
type eventBuffer struct {
	mu       sync.Mutex
	buf      []byte
	lines    int // newlines in buf
	base     int // cursor of buf[0]: the bytes earlier resets discarded
	maxBytes int
	dropped  int
	closed   bool
	// wake exists only while a reader is parked: a reader that finds
	// nothing new creates it, and the next write, reset or close closes
	// and clears it.
	wake chan struct{}
}

var newline = []byte{'\n'}

func newEventBuffer(maxBytes int) *eventBuffer {
	return &eventBuffer{maxBytes: maxBytes}
}

// Write appends p, which holds whole lines. It never fails: after close
// p is discarded, and past the byte bound it is discarded and its lines
// are counted as dropped.
func (b *eventBuffer) Write(p []byte) (int, error) {
	n := bytes.Count(p, newline)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return len(p), nil
	}
	if b.maxBytes > 0 && len(b.buf)-b.lines+len(p)-n > b.maxBytes {
		b.dropped += n
		return len(p), nil
	}
	b.buf = append(b.buf, p...)
	b.lines += n
	b.wakeLocked()
	return len(p), nil
}

// reset discards the log (a retried run restarts its streams from
// scratch); subscribers resume at the beginning of the new log.
func (b *eventBuffer) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.base += len(b.buf)
	b.buf, b.lines, b.dropped = nil, 0, 0
	b.wakeLocked()
}

// close marks the log complete and wakes all subscribers. Idempotent.
func (b *eventBuffer) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.wakeLocked()
}

func (b *eventBuffer) wakeLocked() {
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}

// counts returns (stored, dropped) line counts.
func (b *eventBuffer) counts() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lines, b.dropped
}

// wait blocks until bytes past cursor from exist, the log is closed, or
// ctx is done. It returns those bytes (whole lines, shared, and capped
// so the caller cannot append into the log), the cursor to pass next,
// and whether the log is closed. Start from 0; a cursor from before the
// latest reset resumes at the beginning of the new log.
func (b *eventBuffer) wait(ctx context.Context, from int) (chunk []byte, next int, closed bool, err error) {
	b.mu.Lock()
	for {
		i := max(from-b.base, 0)
		if n := len(b.buf); n > i || b.closed {
			chunk, next, closed = b.buf[i:n:n], b.base+n, b.closed
			b.mu.Unlock()
			return chunk, next, closed, nil
		}
		if b.wake == nil {
			b.wake = make(chan struct{})
		}
		ch := b.wake
		b.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, from, false, ctx.Err()
		}
		b.mu.Lock()
	}
}

// replay pre-fills the log with journalled lines (a restore) and closes
// it. Lines are counted from the stored bytes, so the count always
// matches the stream.
func (b *eventBuffer) replay(lines []string) {
	size := len(lines)
	for _, ln := range lines {
		size += len(ln)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = make([]byte, 0, size)
	for _, ln := range lines {
		b.buf = append(append(b.buf, ln...), '\n')
	}
	b.lines = bytes.Count(b.buf, newline)
	b.closed = true
	b.wakeLocked()
}
