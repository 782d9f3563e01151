package bgsched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bgsched/internal/experiments"
	"bgsched/internal/trace"
)

// traceGoldenDigest pins the byte-exact NDJSON causal trace of the
// six-point golden grid (experiments.GoldenGrid): a sha256 over every
// run's trace log. The tracer emits only simulated-time records by
// default (no wall-clock spans), so the trace is a determinism oracle
// one level deeper than the event-log digest — it additionally freezes
// the causal links (kill -> failure, requeue -> kill, migrate ->
// finish) and the allocate/partition attributions. Only a deliberate
// semantic change to the simulator or the trace schema may re-pin it.
const traceGoldenDigest = "d5e97b0cb8a69c0f14d604299d4d169ae71fe07a6b1ada29c4618f956f67d5a3"

// traceDigest executes the golden grid with the given partition finder
// and folds every run's NDJSON trace into one digest.
func traceDigest(t *testing.T, finder string) string {
	t.Helper()
	h := sha256.New()
	for i, cfg := range experiments.GoldenGrid() {
		var buf bytes.Buffer
		cfg.Trace = trace.New(&buf, trace.Options{})
		cfg.Finder = finder
		if _, err := experiments.Run(cfg); err != nil {
			t.Fatalf("grid point %d (finder %q): %v", i, finder, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("grid point %d (finder %q): empty trace", i, finder)
		}
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraceDigest pins the trace bytes of the golden grid under
// the default (shape) finder.
func TestGoldenTraceDigest(t *testing.T) {
	if got := traceDigest(t, ""); got != traceGoldenDigest {
		t.Fatalf("golden trace digest drifted:\n got  %s\n want %s\n"+
			"(a refactor must be byte-identical; only deliberate semantic changes may re-pin)", got, traceGoldenDigest)
	}
}

// TestGoldenTraceColdVsWarm proves artifact-cache reuse never leaks
// into the trace: the first pass populates the shared build cache, the
// second rebuilds every point warm, and both must produce identical
// trace bytes. (Stage spans are wall-clock records, emitted only under
// Options{WallSpans: true}, so cache hit/miss attributes cannot appear
// in the default trace by construction — this test guards that gate.)
func TestGoldenTraceColdVsWarm(t *testing.T) {
	cold := traceDigest(t, "")
	warm := traceDigest(t, "")
	if cold != warm {
		t.Fatalf("trace bytes differ between cold and warm builds:\n%s\n%s", cold, warm)
	}
}

// TestGoldenTraceAcrossFinders proves the trace is finder-invariant:
// every partition-search algorithm returns identical candidate sets, so
// scheduling decisions — and therefore every allocate record's
// partition — must agree byte-for-byte. This promotes the repo's
// differential finder oracle into the causal-trace layer.
func TestGoldenTraceAcrossFinders(t *testing.T) {
	if testing.Short() {
		t.Skip("naive finder is slow; skipped with -short")
	}
	for _, finder := range []string{"naive", "pop", "shape"} {
		finder := finder
		t.Run(finder, func(t *testing.T) {
			if got := traceDigest(t, finder); got != traceGoldenDigest {
				t.Fatalf("finder %q produced a different trace digest:\n got  %s\n want %s",
					finder, got, traceGoldenDigest)
			}
		})
	}
}
