package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEventBufferReplayAndFollow(t *testing.T) {
	b := newEventBuffer(0)
	b.append([]byte("one"))
	b.append([]byte("two"))

	ctx := context.Background()
	lines, next, closed, err := b.wait(ctx, 0)
	if err != nil || closed || len(lines) != 2 || next != 2 {
		t.Fatalf("replay: lines=%d next=%d closed=%v err=%v", len(lines), next, closed, err)
	}
	if string(lines[0]) != "one" || string(lines[1]) != "two" {
		t.Fatalf("replay content: %q %q", lines[0], lines[1])
	}

	// A follower blocks until the next append.
	got := make(chan string, 1)
	go func() {
		lines, _, _, _ := b.wait(ctx, next)
		got <- string(lines[0])
	}()
	time.Sleep(10 * time.Millisecond) // let the follower park
	b.append([]byte("three"))
	select {
	case s := <-got:
		if s != "three" {
			t.Fatalf("follower got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never woke")
	}

	// close wakes blocked waiters with closed=true and an empty batch.
	done := make(chan struct{})
	go func() {
		lines, _, closed, _ := b.wait(ctx, 3)
		if len(lines) != 0 || !closed {
			t.Errorf("post-close wait: lines=%d closed=%v", len(lines), closed)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	b.close()
	<-done
	b.close() // idempotent
	b.append([]byte("late"))
	if n, _ := b.counts(); n != 3 {
		t.Fatalf("append after close stored a line: %d", n)
	}
}

func TestEventBufferResetRestartsCursor(t *testing.T) {
	b := newEventBuffer(0)
	b.append([]byte("a"))
	b.append([]byte("b"))
	b.reset()
	b.append([]byte("c"))
	// A subscriber whose cursor (2) is past the new end restarts at 0.
	lines, next, _, err := b.wait(context.Background(), 2)
	if err != nil || len(lines) != 1 || string(lines[0]) != "c" || next != 1 {
		t.Fatalf("after reset: lines=%v next=%d err=%v", lines, next, err)
	}
}

func TestEventBufferByteCapDrops(t *testing.T) {
	b := newEventBuffer(10)
	b.append([]byte("12345"))  // 5 bytes
	b.append([]byte("67890"))  // 10 bytes, at the cap
	b.append([]byte("x"))      // would exceed: dropped
	b.append([]byte("yzyzyz")) // dropped
	stored, dropped := b.counts()
	if stored != 2 || dropped != 2 {
		t.Fatalf("stored=%d dropped=%d, want 2/2", stored, dropped)
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
	time.Sleep(10 * time.Millisecond)
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

// TestEventBufferConcurrent hammers one buffer from appenders and
// followers; meaningful under -race.
func TestEventBufferConcurrent(t *testing.T) {
	b := newEventBuffer(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.append([]byte(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	ctx, cancelReaders := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for rdr := 0; rdr < 4; rdr++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			cursor := 0
			for {
				lines, next, closed, err := b.wait(ctx, cursor)
				if err != nil || closed {
					return
				}
				for _, ln := range lines {
					_ = len(ln)
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
