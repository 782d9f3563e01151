package telemetry

import "testing"

// TestBatchFlush covers the local-accumulation contract: increments
// stay invisible to the counter until Flush, and Flush drains exactly
// the pending delta.
func TestBatchFlush(t *testing.T) {
	c := new(Counter)
	b := NewBatch(c)
	b.Inc()
	b.Add(4)
	if c.Value() != 0 {
		t.Fatal("batched increments visible before Flush")
	}
	if b.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", b.Pending())
	}
	b.Flush()
	if c.Value() != 5 {
		t.Fatalf("counter after flush = %d, want 5", c.Value())
	}
	if b.Pending() != 0 {
		t.Fatal("Pending not reset by Flush")
	}
	b.Flush() // idempotent with nothing pending
	if c.Value() != 5 {
		t.Fatal("empty Flush changed the counter")
	}
}

// TestBatchNilCounter: a batch over a nil counter accumulates and
// discards without panicking, so instrumented code needs no guards.
func TestBatchNilCounter(t *testing.T) {
	b := NewBatch(nil)
	b.Inc()
	b.Flush()
	if b.Pending() != 0 {
		t.Fatal("Flush did not reset pending on nil counter")
	}
}
