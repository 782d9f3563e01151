package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bgsched/internal/failure"
)

func TestBgtraceWorkloadAndInspect(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"workload", "-preset", "LLNL", "-jobs", "100", "-seed", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MaxProcs: 256") {
		t.Fatalf("SWF header wrong:\n%s", buf.String()[:200])
	}
	path := filepath.Join(t.TempDir(), "log.swf")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var info bytes.Buffer
	if err := run(context.Background(), []string{"inspect", "-swf", path}, &info); err != nil {
		t.Fatal(err)
	}
	out := info.String()
	for _, want := range []string{"machine nodes       256", "jobs                100", "offered load"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestBgtraceFailuresAndInspect(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"failures", "-count", "300", "-span-days", "10", "-seed", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fail.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var info bytes.Buffer
	if err := run(context.Background(), []string{"inspect", "-failures", path}, &info); err != nil {
		t.Fatal(err)
	}
	out := info.String()
	for _, want := range []string{"events              300", "rate", "top-decile share"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestBgtraceMapFailures(t *testing.T) {
	// Compute-node failures on a 32x32x64 machine map to 4x4x8 supernodes.
	tr := failure.Trace{
		{Time: 10, Node: 0},     // (0,0,0) -> supernode 0
		{Time: 20, Node: 65535}, // last compute node -> supernode 127
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "compute.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := failure.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run(context.Background(), []string{"mapfailures", "-in", in}, &buf); err != nil {
		t.Fatal(err)
	}
	mapped, err := failure.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(mapped) != 2 || mapped[0].Node != 0 || mapped[1].Node != 127 {
		t.Fatalf("mapped = %v", mapped)
	}
}

func TestBgtraceMapFailuresErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"mapfailures"}, &buf); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run(context.Background(), []string{"mapfailures", "-in", "x.csv", "-block", "3x3x3"}, &buf); err == nil {
		t.Error("non-tiling block accepted")
	}
}

func TestBgtraceErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"unknown"},
		{"inspect"},
		{"inspect", "-swf", "/nonexistent/file.swf"},
		{"workload", "-preset", "EARTH"},
		{"failures", "-count", "-5"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// The no-argument usage error names every subcommand run dispatches.
func TestBgtraceUsageNamesEverySubcommand(t *testing.T) {
	err := run(context.Background(), nil, &bytes.Buffer{})
	if err == nil {
		t.Fatal("no subcommand accepted")
	}
	for _, sub := range []string{"workload", "failures", "mapfailures", "inspect", "spans"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("usage %q does not name %s", err, sub)
		}
	}
}

func TestDistLineEmpty(t *testing.T) {
	if got := distLine(nil); got != "n/a" {
		t.Errorf("distLine(nil) = %q", got)
	}
}

// A damaged trace fails fast by default and parses with -lenient,
// which reports the skipped lines on stderr.
func TestBgtraceInspectLenient(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(csvPath, []byte("time_seconds,node\n10,1\nnot-a-time,2\n20,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"inspect", "-failures", csvPath}, &bytes.Buffer{}); err == nil {
		t.Fatal("strict inspect accepted a damaged trace")
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"inspect", "-failures", csvPath, "-lenient"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "events              2") {
		t.Fatalf("lenient inspect kept wrong events:\n%s", buf.String())
	}

	swfPath := filepath.Join(dir, "bad.swf")
	good := "1 0 -1 100 8 -1 -1 8 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if err := os.WriteFile(swfPath, []byte("; MaxProcs: 64\n"+good+"short line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"inspect", "-swf", swfPath}, &bytes.Buffer{}); err == nil {
		t.Fatal("strict inspect accepted a damaged SWF")
	}
	buf.Reset()
	if err := run(context.Background(), []string{"inspect", "-swf", swfPath, "-lenient"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "jobs                1") {
		t.Fatalf("lenient inspect kept wrong jobs:\n%s", buf.String())
	}
}

func TestBgtraceCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"workload"}, &bytes.Buffer{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
