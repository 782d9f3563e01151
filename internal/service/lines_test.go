package service

import (
	"bytes"
	"context"
	"io"
	"testing"

	"bgsched/internal/experiments"
	"bgsched/internal/sim"
	"bgsched/internal/trace"
)

// recordingWriter keeps a copy of every Write and forwards it.
type recordingWriter struct {
	w      io.Writer
	writes [][]byte
}

func (rw *recordingWriter) Write(p []byte) (int, error) {
	rw.writes = append(rw.writes, append([]byte(nil), p...))
	return rw.w.Write(p)
}

// TestRunOutputsWriteWholeLines pins the contract the byte log relies
// on: the simulator's event logger and the tracer write exactly one
// newline-terminated record per Write, so a run's byte log counts the
// lines it streams and every line decodes on its own, numbered in
// order from 1. The run turns on every mechanism that emits records:
// failures, periodic checkpoints, migration, network contention and
// wall-clock spans.
func TestRunOutputsWriteWholeLines(t *testing.T) {
	events, traces := newEventBuffer(0), newEventBuffer(0)
	elog := &recordingWriter{w: events}
	tlog := &recordingWriter{w: traces}
	cfg := experiments.RunConfig{
		Workload: "SDSC", JobCount: 150, FailureNominal: 2000,
		Scheduler: experiments.SchedBalancing, Param: 0.1,
		CheckpointInterval: 3600, Migration: true, Contention: "medium",
		Seed:     3,
		EventLog: elog,
		Trace:    trace.New(tlog, trace.Options{WallSpans: true}),
	}
	cfg.Trace.Meta(trace.F("run", "r-000001"))
	res, err := experiments.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobKills == 0 || res.Checkpoints == 0 || res.Migrations == 0 || res.ContentionCharges == 0 {
		t.Fatalf("run skipped a mechanism: kills=%d checkpoints=%d migrations=%d contention=%d",
			res.JobKills, res.Checkpoints, res.Migrations, res.ContentionCharges)
	}
	events.close()
	traces.close()

	for _, tc := range []struct {
		name string
		rec  *recordingWriter
		log  *eventBuffer
		// decode parses one line, returning its records' count and the
		// first one's seq.
		decode func(line []byte) (int, uint64, error)
	}{
		{"event log", elog, events, func(line []byte) (int, uint64, error) {
			evs, err := sim.ReadEventLog(bytes.NewReader(line))
			if len(evs) == 0 {
				return 0, 0, err
			}
			return len(evs), evs[0].Seq, err
		}},
		{"trace", tlog, traces, func(line []byte) (int, uint64, error) {
			recs, err := trace.ReadLog(bytes.NewReader(line))
			if len(recs) == 0 {
				return 0, 0, err
			}
			return len(recs), recs[0].Seq, err
		}},
	} {
		if len(tc.rec.writes) == 0 {
			t.Fatalf("%s: nothing written", tc.name)
		}
		for i, p := range tc.rec.writes {
			if bytes.Count(p, newline) != 1 || p[len(p)-1] != '\n' {
				t.Fatalf("%s: write %d is not one newline-terminated line: %q", tc.name, i, p)
			}
		}
		all, _, _, _ := tc.log.wait(context.Background(), 0)
		lines, dropped := tc.log.counts()
		if physical := bytes.Count(all, newline); lines != physical || lines != len(tc.rec.writes) || dropped != 0 {
			t.Fatalf("%s: counted %d lines (%d dropped), holds %d, written %d",
				tc.name, lines, dropped, physical, len(tc.rec.writes))
		}
		for i, line := range bytes.SplitAfter(all, newline) {
			if len(line) == 0 {
				continue
			}
			if n, seq, err := tc.decode(line); err != nil || n != 1 || seq != uint64(i+1) {
				t.Fatalf("%s: line %d decodes to %d records, seq %d (%v): %q", tc.name, i+1, n, seq, err, line)
			}
		}
	}
	if !bytes.Contains(traces.buf, []byte(`"span":true`)) {
		t.Fatal("trace holds no wall-clock span")
	}
}
