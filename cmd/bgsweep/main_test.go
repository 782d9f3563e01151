package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgsched/internal/resilience"
)

func TestBgsweepSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig3", "-jobs", "50", "-seed", "2", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig3", "failures", "a=0.0", "a=0.1", "a=0.9", "completed in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestBgsweepCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig4", "-jobs", "50", "-csv", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "failures,c=1.0,c=1.2") {
		t.Errorf("CSV header missing:\n%s", buf.String())
	}
}

func TestBgsweepFinders(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "finders"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"naive", "pop", "shape"} {
		if !strings.Contains(out, want) {
			t.Errorf("finder table missing %q", want)
		}
	}
	if strings.Contains(out, "fast") {
		t.Errorf("finder table still has a fast column:\n%s", out)
	}
}

// A figure swept under -finder=fast must produce the same table as the
// shape default: "fast" is another name for the shape finder.
func TestBgsweepFinderFlagInvariant(t *testing.T) {
	base := []string{"-fig", "fig4", "-jobs", "50", "-reps", "1", "-workers", "1"}
	var want, got bytes.Buffer
	if err := run(context.Background(), base, &want); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append([]string{"-finder", "fast"}, base...), &got); err != nil {
		t.Fatal(err)
	}
	stripTiming := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.Contains(line, "completed in") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if stripTiming(got.String()) != stripTiming(want.String()) {
		t.Fatalf("-finder=fast changed sweep results:\n%s\nvs\n%s", got.String(), want.String())
	}
}

func TestBgsweepBadFinder(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig4", "-finder", "psychic"}, &buf); err == nil {
		t.Fatal("unknown finder accepted")
	}
}

func TestBgsweepKrevat(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "krevat", "-jobs", "60", "-reps", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"krevat", "slowdown", "fcfs+backfill+migration"} {
		if !strings.Contains(out, want) {
			t.Errorf("krevat output missing %q", want)
		}
	}
}

func TestBgsweepPlotFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig4", "-jobs", "40", "-reps", "1", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend:") {
		t.Error("plot legend missing")
	}
}

func TestBgsweepUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig99"}, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// Journal a full figure run, truncate the journal to simulate an
// interruption, then -resume it: the resumed output must match an
// uninterrupted run, and bgsweep must report the skipped points.
func TestBgsweepJournalResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	flags := []string{"-fig", "fig4", "-jobs", "50", "-seed", "2", "-reps", "1", "-workers", "2"}

	var full bytes.Buffer
	if err := run(context.Background(), append(flags, "-journal", journal), &full); err != nil {
		t.Fatal(err)
	}
	jc, err := resilience.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(jc.Points) == 0 {
		t.Fatal("journal holds no points")
	}

	// "Interrupt": drop the last few journal lines, keeping the header.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	cut := len(lines) - 3
	if cut < 2 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	if err := os.WriteFile(journal, append(bytes.Join(lines[:cut], []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	if err := run(context.Background(), append(flags, "-resume", journal), &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "# resumed") {
		t.Fatalf("resume run did not report skipped points:\n%s", resumed.String())
	}
	// Identical tables: strip the "# resumed" and timing lines first.
	scrub := func(s string) string {
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "#") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if scrub(full.String()) != scrub(resumed.String()) {
		t.Fatalf("resumed output diverged:\nfull:\n%s\nresumed:\n%s", full.String(), resumed.String())
	}

	// The reopened journal must now hold every point again.
	jc2, err := resilience.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(jc2.Points) != len(jc.Points) {
		t.Fatalf("resumed journal holds %d points, want %d", len(jc2.Points), len(jc.Points))
	}
}

func TestBgsweepJournalResumeExclusive(t *testing.T) {
	err := run(context.Background(), []string{"-fig", "fig4", "-journal", "a", "-resume", "b"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}

func TestBgsweepResumeRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	if err := run(context.Background(), []string{"-fig", "fig4", "-jobs", "50", "-reps", "1", "-journal", journal}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-fig", "fig4", "-jobs", "60", "-reps", "1", "-resume", journal}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "config") {
		t.Fatalf("config mismatch accepted: %v", err)
	}
}

// A cancelled sweep must still exit through the graceful-drain path,
// leaving a valid journal behind and reporting it resumable.
func TestBgsweepCancelledLeavesValidJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-fig", "fig4", "-jobs", "50", "-reps", "1", "-journal", journal}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	if _, err := resilience.ReadJournal(journal); err != nil {
		t.Fatalf("journal unreadable after interrupt: %v", err)
	}
}

func TestBgsweepCheckFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "fig4", "-jobs", "50", "-reps", "1", "-check"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestBgsweepBadPlacementFlags(t *testing.T) {
	cases := [][]string{
		{"-anneal-seed", "-1", "-fig", "fig4"},
		{"-contention", "psychic", "-fig", "fig4"},
		{"-tournament", "-finder", "fast"},
		{"-tournament", "-contention", "medium"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// Malformed figure options are refused by experiments.Options.Validate,
// naming the field, before any point runs. Each of these once
// simulated the whole figure and then failed or ran a default.
func TestBgsweepRefusesBadOptions(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-metric", "slowdwn", `Metric: unknown "slowdwn"`},
		{"-agg", "foo", `Aggregate: unknown "foo"`},
		{"-reps", "-2", "Replications must be >= 1, got -2"},
		{"-jobs", "-3", "JobCount must be >= 1, got -3"},
		{"-failure-scale", "-1", "FailureScale must be >= 0, got -1"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-fig", "fig3", "-reps", "1", "-jobs", "20", tc.flag, tc.value}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: err = %v, want %q", tc.flag, tc.value, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%s %s: ran points:\n%s", tc.flag, tc.value, out.String())
		}
	}
}

// -tournament runs every registered finder against every workload with
// contention off and on, and reports one labelled row per entry.
func TestBgsweepTournament(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-tournament", "-jobs", "30", "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dilation (s)", "naive/nasa/off", "anneal/llnl/medium", "shape/sdsc/off"} {
		if !strings.Contains(out, want) {
			t.Errorf("tournament output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("tournament left unfilled slots:\n%s", out)
	}
}

// -contention and -anneal-seed apply to every point of an ordinary
// figure sweep; the golden grid under a loaded network must still
// complete cleanly.
func TestBgsweepContentionOverride(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-fig", "golden", "-finder", "anneal", "-anneal-seed", "5", "-contention", "low", "-workers", "2"}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "golden") {
		t.Fatalf("golden table missing:\n%s", buf.String())
	}
}
