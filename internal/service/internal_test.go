package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEventBufferReplayAndFollow(t *testing.T) {
	b := newEventBuffer(0)
	b.Write([]byte("one\n"))
	b.Write([]byte("two\n"))

	ctx := context.Background()
	chunk, next, closed, err := b.wait(ctx, 0)
	if err != nil || closed || string(chunk) != "one\ntwo\n" || next != 8 {
		t.Fatalf("replay: chunk=%q next=%d closed=%v err=%v", chunk, next, closed, err)
	}

	// A follower blocks until the next write.
	got := make(chan string, 1)
	go func() {
		chunk, _, _, _ := b.wait(ctx, next)
		got <- string(chunk)
	}()
	waitParked(t, b)
	b.Write([]byte("three\n"))
	select {
	case s := <-got:
		if s != "three\n" {
			t.Fatalf("follower got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never woke")
	}

	// close wakes blocked waiters with closed=true and an empty batch.
	done := make(chan struct{})
	go func() {
		chunk, _, closed, _ := b.wait(ctx, 14)
		if len(chunk) != 0 || !closed {
			t.Errorf("post-close wait: chunk=%q closed=%v", chunk, closed)
		}
		close(done)
	}()
	waitParked(t, b)
	b.close()
	<-done
	b.close() // idempotent
	b.Write([]byte("late\n"))
	if n, _ := b.counts(); n != 3 {
		t.Fatalf("write after close stored a line: %d", n)
	}
}

// waitParked waits until a reader is parked in b.wait.
func waitParked(t *testing.T, b *eventBuffer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		parked := b.wake != nil
		b.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("reader never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEventBufferResetRestartsCursor(t *testing.T) {
	b := newEventBuffer(0)
	b.Write([]byte("a\n"))
	b.Write([]byte("b\n"))
	b.reset()
	b.Write([]byte("c\n"))
	// A subscriber whose cursor (4) dates from before the reset
	// restarts at the beginning of the new log.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	chunk, next, _, err := b.wait(ctx, 4)
	if err != nil || string(chunk) != "c\n" || next != 6 {
		t.Fatalf("after reset: chunk=%q next=%d err=%v", chunk, next, err)
	}
	if n, _ := b.counts(); n != 1 {
		t.Fatalf("after reset: %d lines, want 1", n)
	}
	// A cursor inside the old log that the new one has outgrown still
	// restarts at the beginning, never mid-line.
	b.Write([]byte("dd\n"))
	if chunk, _, _, err := b.wait(ctx, 2); string(chunk) != "c\ndd\n" {
		t.Fatalf("old cursor read %q (%v), want the whole new log", chunk, err)
	}
	// A cursor from the new log continues where it left off.
	if chunk, _, _, err := b.wait(ctx, next); string(chunk) != "dd\n" {
		t.Fatalf("new cursor read %q (%v)", chunk, err)
	}
}

func TestEventBufferByteCapDrops(t *testing.T) {
	b := newEventBuffer(10)
	b.Write([]byte("12345\n"))  // 5 bytes
	b.Write([]byte("67890\n"))  // 10 bytes, at the cap
	b.Write([]byte("x\n"))      // would exceed: dropped
	b.Write([]byte("yzyzyz\n")) // dropped
	stored, dropped := b.counts()
	if stored != 2 || dropped != 2 {
		t.Fatalf("stored=%d dropped=%d, want 2/2", stored, dropped)
	}
	if chunk, _, _, _ := b.wait(context.Background(), 0); string(chunk) != "12345\n67890\n" {
		t.Fatalf("retained %q", chunk)
	}
}

func TestEventBufferWaitCancellation(t *testing.T) {
	b := newEventBuffer(0)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := b.wait(ctx, 0)
		errc <- err
	}()
	waitParked(t, b)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled wait returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled wait never returned")
	}
}

// TestEventBufferConcurrent hammers one buffer from writers and
// followers; meaningful under -race. Every follower must read whole
// lines and see every line.
func TestEventBufferConcurrent(t *testing.T) {
	b := newEventBuffer(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Write([]byte(fmt.Sprintf("w%d-%d\n", w, i)))
			}
		}(w)
	}
	ctx, cancelReaders := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for rdr := 0; rdr < 4; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			cursor, lines := 0, 0
			for {
				chunk, next, closed, err := b.wait(ctx, cursor)
				if err != nil {
					return
				}
				if len(chunk) > 0 && chunk[len(chunk)-1] != '\n' {
					t.Errorf("torn batch %q", chunk)
				}
				lines += bytes.Count(chunk, newline)
				if closed {
					if lines != 800 {
						t.Errorf("follower read %d lines, want 800", lines)
					}
					return
				}
				cursor = next
			}
		}()
	}
	wg.Wait()
	b.close()
	readers.Wait()
	cancelReaders()
	if n, _ := b.counts(); n != 800 {
		t.Fatalf("stored %d lines, want 800", n)
	}
}

// TestEventBufferSlicesNeverChange: a batch handed out by wait keeps
// its bytes while later writes append (in place or into a grown array)
// and after a reset, and its capacity stops appends into the log.
func TestEventBufferSlicesNeverChange(t *testing.T) {
	b := newEventBuffer(0)
	b.Write([]byte("first\n"))
	chunk, _, _, _ := b.wait(context.Background(), 0)
	if cap(chunk) != len(chunk) {
		t.Fatalf("batch cap %d > len %d: the caller could append into the log", cap(chunk), len(chunk))
	}
	_ = append(chunk, "clobber\n"...)
	for i := 0; i < 100; i++ {
		b.Write([]byte("later\n"))
	}
	b.reset()
	b.Write([]byte("retry\n"))
	if string(chunk) != "first\n" {
		t.Fatalf("handed-out batch changed to %q", chunk)
	}
	if got, _, _, _ := b.wait(context.Background(), 0); string(got) != "retry\n" {
		t.Fatalf("log after reset = %q", got)
	}
}

// TestEventBufferWakesOnlyParkedReaders: writes with no reader parked
// make no wake channel; a parked reader makes one, and the write that
// wakes it clears it.
func TestEventBufferWakesOnlyParkedReaders(t *testing.T) {
	b := newEventBuffer(0)
	hasWake := func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.wake != nil
	}
	for i := 0; i < 10; i++ {
		b.Write([]byte("line\n"))
	}
	b.reset()
	if hasWake() {
		t.Fatal("wake channel made with no reader parked")
	}
	done := make(chan struct{})
	go func() {
		b.wait(context.Background(), 0)
		close(done)
	}()
	waitParked(t, b)
	b.Write([]byte("line\n"))
	<-done
	if hasWake() {
		t.Fatal("wake channel left behind after waking the reader")
	}
	b.Write([]byte("line\n"))
	if hasWake() {
		t.Fatal("write made a wake channel")
	}
}

func TestParseStateJournalToleratesTornLine(t *testing.T) {
	data := []byte(`{"type":"run","body":{"id":"r-000001","state":"done"},"events":["e1"]}
not json at all
{"type":"other","body":{"id":"r-000002","state":"done"}}
{"type":"run","body":{"id":"r-000003","state":"done"}}
{"type":"run","body":{"id":"r-0000`) // torn mid-append
	got, report := parseStateJournal(data)
	if len(got) != 2 {
		t.Fatalf("parsed %d records, want 2", len(got))
	}
	if len(got[0].Events) != 1 || got[0].Events[0] != "e1" {
		t.Fatalf("record 0 events: %v", got[0].Events)
	}
	// "not json at all", the wrong-type line, and the torn tail all
	// count as malformed skips.
	if report.malformed != 3 || report.badCRC != 0 {
		t.Fatalf("report = %+v, want 3 malformed", report)
	}
}

func TestIDNumber(t *testing.T) {
	for id, want := range map[string]int64{
		"r-000042": 42, "r-1": 1, "x-000042": 0, "r-abc": 0, "": 0,
	} {
		if got := idNumber(id); got != want {
			t.Errorf("idNumber(%q) = %d, want %d", id, got, want)
		}
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != 2 || c.QueueDepth != 16 || c.CacheSize != 128 ||
		c.RunTimeout != 10*time.Minute || c.Retries != 1 || c.MaxJobs != 20000 {
		t.Fatalf("zero-value defaults wrong: %+v", c)
	}
	if c.Telemetry == nil {
		t.Fatal("nil Telemetry not defaulted")
	}
	if got := (Config{Retries: -1}).withDefaults().Retries; got != 0 {
		t.Fatalf("Retries -1 -> %d, want 0 (disabled)", got)
	}
	if got := (Config{Retries: 3}).withDefaults().Retries; got != 3 {
		t.Fatalf("Retries 3 -> %d", got)
	}
}
