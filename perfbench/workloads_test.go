package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload's full code path in about a second.
var tinyScale = scale{
	setupReps: 1, setupMin: 0,
	headlineJobs: 40,
	sweepJobs:    8,
	serveJobs:    30, warmRuns: 3, coldGap: 100 * time.Millisecond, hitsPerCold: 3, logsPerCold: 1,
}

func tinyConfig(t *testing.T, name string, seed int64) config {
	return config{name: name, seed: seed, window: 500 * time.Millisecond, traced: true, spans: t.TempDir(),
		scale: tinyScale}
}

// repeatable are the traced counts that must not vary between two
// traced passes at one seed.
var repeatable = []string{"sim.events", "core.decisions", "partition.finder_calls",
	"core.backfill_useful_ratio", "partition.mfp_cache_hit_ratio"}

// TestWorkloadsTiny runs every workload twice at a tiny scale with the
// traced pass: no operation may fail, both metric sets must render, the
// deterministic counts must repeat, and the wrapper-measured policy and
// finder time must fit inside the program's own decision time.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first map[string]float64
			for pass := 0; pass < 2; pass++ {
				cfg := tinyConfig(t, w.name, 5)
				rep, err := w.run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				for _, traced := range []bool{false, true} {
					if _, err := rep.result(traced); err != nil {
						t.Fatalf("traced=%v: %v", traced, err)
					}
				}
				for _, m := range endToEnd {
					if !(rep.e2e[m.name] > 0) {
						t.Errorf("%s = %v, want > 0", m.name, rep.e2e[m.name])
					}
				}
				if self := rep.layers["core.self_ms"]; self < 0 {
					t.Errorf("core.self_ms = %v < 0", self)
				}
				if pass == 0 {
					first = rep.layers
					continue
				}
				for _, m := range repeatable {
					if rep.layers[m] != first[m] {
						t.Errorf("%s: %v then %v", m, first[m], rep.layers[m])
					}
				}
			}
		})
	}
}

// TestTamperedDigestFails pins a wrong digest for a headline and a
// sweep key and requires every operation on it to count as failed.
func TestTamperedDigestFails(t *testing.T) {
	cfg := tinyConfig(t, "headline-run", 1)
	cfg.traced = false
	key := headlineKey(headlineConfig(cfg.scale))
	headlinePinned[key] = "tampered"
	defer delete(headlinePinned, key)
	rep, err := runHeadline(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.failed != rep.attempted {
		t.Errorf("headline: %d of %d runs failed, want all", rep.failed, rep.attempted)
	}

	cfg.name = "fig6-sweep"
	key = sweepKey(cfg.scale.sweepJobs, 1)
	sweepPinned[key] = "tampered"
	defer delete(sweepPinned, key)
	if rep, err = runSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.failed != rep.attempted {
		t.Errorf("sweep: %d of %d points failed, want all", rep.failed, rep.attempted)
	}
}

// TestMismatchedBodyFails corrupts the bytes a read must repeat and
// requires each such read to count as a failed operation.
func TestMismatchedBodyFails(t *testing.T) {
	ctx := context.Background()
	srv, err := startServer(ctx, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	for i := range srv.warm {
		srv.warm[i].hit = append([]byte(nil), srv.warm[i].hit...)
		srv.warm[i].hit[len(srv.warm[i].hit)-2] ^= 1
	}
	reqs := schedule(tinyScale, 1, time.Second, srv.warm)
	var rep report
	tally(&rep, srv.gen.play(ctx, reqs, nil, 0), "test")
	hits := 0
	for _, r := range reqs {
		if r.method == "POST" && r.class == classRead {
			hits++
		}
	}
	if hits == 0 || rep.failed != hits {
		t.Errorf("%d failed operations, want one per cache-hit read (%d)", rep.failed, hits)
	}
}

// TestFailedColdsStillReport makes every cold submission fail — an
// unknown finder, which the service answers with 400 — and requires
// both passes of serve-mix to render a result line that counts them.
func TestFailedColdsStillReport(t *testing.T) {
	saved := coldPlacements
	coldPlacements = [][2]string{{"no-such-finder", ""}}
	defer func() { coldPlacements = saved }()
	rep, err := runServe(context.Background(), tinyConfig(t, "serve-mix", 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		line, err := rep.line(traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		var res result
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
			t.Errorf("traced=%v: correct %v, %d of %d failed, want the cold submissions alone",
				traced, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []def
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		json []def
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in the program",
					i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestRunReportsWorkloadAndPhase checks flag validation and that a
// failure names the workload and the phase and prints no result.
func TestRunReportsWorkloadAndPhase(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"--workload", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown workload: exit %d", code)
	}
	if code := run(context.Background(), []string{"--workload", "fig6-sweep", "--trace", "2"}, &out, &errb); code != 2 {
		t.Errorf("bad -trace: exit %d", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errb.Reset()
	code := run(ctx, []string{"--workload", "headline-run", "--seconds", "1", "--spans", t.TempDir()}, &out, &errb)
	if code != 1 || out.Len() != 0 {
		t.Errorf("cancelled run: exit %d, stdout %q", code, out.String())
	}
	if msg := errb.String(); !strings.Contains(msg, "workload headline-run: setup: context canceled") {
		t.Errorf("error %q does not name the workload and phase", msg)
	}
}
