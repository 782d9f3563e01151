package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"bgsched/internal/resilience"
)

func TestNilFlightRecorderIsSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{T: 1})
	if got := f.Events(); got != nil {
		t.Fatalf("nil Events = %v", got)
	}
	if err := f.Dump("test"); err != nil {
		t.Fatalf("nil Dump = %v", err)
	}
	RegisterFlight(nil)
	UnregisterFlight(nil)
}

func TestFlightRingOrder(t *testing.T) {
	f := NewFlightRecorder(4, nil, "ring-test")
	for i := 1; i <= 3; i++ {
		f.Record(FlightEvent{Seq: int64(i), Kind: "arrival"})
	}
	got := f.Events()
	if len(got) != 3 || got[0].Seq != 1 || got[2].Seq != 3 {
		t.Fatalf("pre-wrap events = %v", got)
	}
	// Push past capacity: ring keeps the last 4, oldest first.
	for i := 4; i <= 9; i++ {
		f.Record(FlightEvent{Seq: int64(i), Kind: "finish"})
	}
	got = f.Events()
	if len(got) != 4 {
		t.Fatalf("post-wrap len = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := int64(6 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestFlightDefaultCapacity(t *testing.T) {
	f := NewFlightRecorder(0, nil, "")
	for i := 0; i < 300; i++ {
		f.Record(FlightEvent{Seq: int64(i)})
	}
	if got := len(f.Events()); got != 256 {
		t.Fatalf("default capacity = %d, want 256", got)
	}
}

func TestFlightDumpFormat(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlightRecorder(8, &buf, "sim-42")
	f.Record(FlightEvent{T: 1.5, Seq: 10, Kind: "failure", Job: 3, Epoch: 2, Node: 7})
	if err := f.Dump("invariant violation"); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"flight recorder dump: sim-42 (invariant violation, 1 event(s))",
		"t=1.5 seq=10 kind=failure job=3 epoch=2 node=7",
		"end flight recorder dump: sim-42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestDumpFlightsRegistry(t *testing.T) {
	a := NewFlightRecorder(4, nil, "a")
	b := NewFlightRecorder(4, nil, "b")
	RegisterFlight(a)
	RegisterFlight(b)
	defer UnregisterFlight(a)
	a.Record(FlightEvent{Seq: 1, Kind: "arrival"})

	var buf bytes.Buffer
	if n := DumpFlights(&buf, "test"); n != 2 {
		t.Fatalf("DumpFlights = %d, want 2", n)
	}
	out := buf.String()
	if !strings.Contains(out, "dump: a") || !strings.Contains(out, "dump: b") {
		t.Fatalf("registry dump missing a recorder:\n%s", out)
	}

	UnregisterFlight(b)
	buf.Reset()
	if n := DumpFlights(&buf, "test"); n != 1 {
		t.Fatalf("after unregister DumpFlights = %d, want 1", n)
	}
}

func TestPanicHookFires(t *testing.T) {
	var got *resilience.PanicError
	resilience.RegisterPanicHook(func(pe *resilience.PanicError) { got = pe })
	err := resilience.Safe(func() error { panic("boom") })
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Safe = %v, want PanicError", err)
	}
	if got == nil || fmt.Sprint(got.Value) != "boom" {
		t.Fatalf("hook observed %v", got)
	}
}

func TestInstallFlightPanicDumpIdempotent(t *testing.T) {
	// Just exercise idempotency; the hook dumps to stderr which we
	// don't capture here.
	InstallFlightPanicDump()
	InstallFlightPanicDump()
	InstallFlightSignalDump()
	InstallFlightSignalDump()
}

// sigquitChildEnv marks the re-executed test binary that sends itself
// SIGQUIT in TestFlightSignalDumpKeepsGoroutineDump.
const sigquitChildEnv = "BGSCHED_TEST_SIGQUIT_CHILD"

// SIGQUIT with the flight dump installed must still reach the Go
// runtime: the flight dump first, then the goroutine dump, and the
// process exits 2 instead of running on.
func TestFlightSignalDumpKeepsGoroutineDump(t *testing.T) {
	if os.Getenv(sigquitChildEnv) == "1" {
		f := NewFlightRecorder(4, nil, "sigquit-child")
		f.Record(FlightEvent{Seq: 1, Kind: "arrival"})
		RegisterFlight(f)
		InstallFlightSignalDump()
		self, err := os.FindProcess(os.Getpid())
		if err != nil {
			t.Fatal(err)
		}
		if err := self.Signal(syscall.SIGQUIT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Second)
		return // only reached when the signal was swallowed
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFlightSignalDumpKeepsGoroutineDump$")
	cmd.Env = append(os.Environ(), sigquitChildEnv+"=1", "GOTRACEBACK=single")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stderr, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("child exit = %v, want status 2\n%s", err, stderr.String())
	}
	out := stderr.String()
	i := strings.Index(out, "=== flight recorder dump: sigquit-child (SIGQUIT, 1 event(s)) ===")
	if i < 0 {
		t.Fatalf("no flight dump in the child's output:\n%s", out)
	}
	if !strings.Contains(out[i:], "\ngoroutine ") {
		t.Fatalf("no goroutine dump after the flight dump:\n%s", out)
	}
}
