package trace

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"bgsched/internal/resilience"
)

// FlightEvent is one kernel dispatch as remembered by the flight
// recorder: the raw calendar entry, before any subsystem interprets it.
type FlightEvent struct {
	T     float64 // simulated time of the dispatch
	Seq   int64   // kernel calendar sequence number
	Kind  string  // event kind name ("arrival", "finish", "failure", ...)
	Job   int64   // subject job id; 0 = none
	Epoch int     // job epoch the event was scheduled under
	Node  int     // subject node for failure/nodeup events
}

// FlightRecorder keeps the last N kernel events in a ring so that a
// crash — invariant violation, contained panic, or SIGQUIT — can dump
// the dispatch history that led up to it. Recording is a mutexed copy
// into a fixed ring (no allocation); a nil *FlightRecorder no-ops.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  []FlightEvent
	next  int  // ring slot for the next event
	wrap  bool // ring has wrapped at least once
	w     io.Writer
	label string
}

// NewFlightRecorder returns a recorder holding the last n events
// (n <= 0 selects 256). Dump writes to w; a nil w falls back to
// stderr at dump time. label identifies the run in dump headers.
func NewFlightRecorder(n int, w io.Writer, label string) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{ring: make([]FlightEvent, n), w: w, label: label}
}

// Record remembers one kernel event. No-op on a nil recorder.
func (f *FlightRecorder) Record(e FlightEvent) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = e
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.wrap = true
	}
	f.mu.Unlock()
}

// Events returns the recorded events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eventsLocked()
}

func (f *FlightRecorder) eventsLocked() []FlightEvent {
	if !f.wrap {
		return append([]FlightEvent(nil), f.ring[:f.next]...)
	}
	out := make([]FlightEvent, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}

// Dump writes the recorded history to the recorder's writer (stderr
// when none was configured), headed by the reason for the dump.
func (f *FlightRecorder) Dump(reason string) error {
	if f == nil {
		return nil
	}
	w := f.w
	if w == nil {
		w = os.Stderr
	}
	return f.DumpTo(w, reason)
}

// DumpTo writes the recorded history to w, oldest event first.
func (f *FlightRecorder) DumpTo(w io.Writer, reason string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	events := f.eventsLocked()
	label := f.label
	f.mu.Unlock()
	if label == "" {
		label = "run"
	}
	if _, err := fmt.Fprintf(w, "=== flight recorder dump: %s (%s, %d event(s)) ===\n",
		label, reason, len(events)); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "t=%g seq=%d kind=%s job=%d epoch=%d node=%d\n",
			e.T, e.Seq, e.Kind, e.Job, e.Epoch, e.Node); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "=== end flight recorder dump: %s ===\n", label)
	return err
}

// Global registry of live recorders, so process-wide dump triggers
// (SIGQUIT, contained panics, an HTTP debug endpoint) can reach every
// in-flight simulation without threading a handle through each layer.
var (
	flightMu  sync.Mutex
	flights   = map[*FlightRecorder]struct{}{}
	installMu sync.Mutex
	sigOnce   bool
	panicOnce bool
)

// RegisterFlight adds f to the set of live recorders covered by
// process-wide dumps. No-op on nil.
func RegisterFlight(f *FlightRecorder) {
	if f == nil {
		return
	}
	flightMu.Lock()
	flights[f] = struct{}{}
	flightMu.Unlock()
}

// UnregisterFlight removes f from the live set; pair with
// RegisterFlight via defer around a run.
func UnregisterFlight(f *FlightRecorder) {
	if f == nil {
		return
	}
	flightMu.Lock()
	delete(flights, f)
	flightMu.Unlock()
}

// DumpFlights dumps every live recorder to w and returns how many were
// dumped.
func DumpFlights(w io.Writer, reason string) int {
	flightMu.Lock()
	live := make([]*FlightRecorder, 0, len(flights))
	for f := range flights {
		live = append(live, f)
	}
	flightMu.Unlock()
	for _, f := range live {
		_ = f.DumpTo(w, reason)
	}
	return len(live)
}

// InstallFlightSignalDump arranges for SIGQUIT to dump every live
// flight recorder to stderr, then hands the signal back to the Go
// runtime, whose goroutine dump and exit status 2 follow. Idempotent;
// safe to call from every CLI main.
func InstallFlightSignalDump() {
	installMu.Lock()
	defer installMu.Unlock()
	if sigOnce {
		return
	}
	sigOnce = true
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		<-ch
		DumpFlights(os.Stderr, "SIGQUIT")
		// Re-raised with Go's default action restored: the runtime
		// prints every goroutine's stack and exits 2. If the signal
		// cannot be sent there is nothing left to report it to.
		signal.Reset(syscall.SIGQUIT)
		if self, err := os.FindProcess(os.Getpid()); err == nil {
			_ = self.Signal(syscall.SIGQUIT)
		}
	}()
}

// InstallFlightPanicDump arranges for panics contained by
// resilience.Safe to dump every live flight recorder to stderr, so the
// kernel history survives even when the process does not crash.
// Idempotent.
func InstallFlightPanicDump() {
	installMu.Lock()
	defer installMu.Unlock()
	if panicOnce {
		return
	}
	panicOnce = true
	resilience.RegisterPanicHook(func(pe *resilience.PanicError) {
		DumpFlights(os.Stderr, fmt.Sprintf("contained panic: %v", pe.Value))
	})
}
