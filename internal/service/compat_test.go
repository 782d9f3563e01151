package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The finder-worker knob is gone from RunConfig and Branch. New
// requests that still carry it are refused by the strict decoder, and
// the error names the field so the client knows what to drop.
func TestRetiredFinderWorkersFieldRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent: status %d: %s", resp.StatusCode, b)
	}
	parent := decodeView(t, b)

	for _, tc := range []struct{ name, url, body, field string }{
		{"run", "/v1/runs",
			`{"Workload":"NASA","JobCount":60,"Finder":"fast","FinderWorkers":2}`, "FinderWorkers"},
		{"branch", "/v1/runs/" + parent.ID + "/branch",
			`{"at_seq":40,"branch":{"finder":"fast","finder_workers":2}}`, "finder_workers"},
	} {
		resp, b := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", tc.name, resp.StatusCode, b)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, b, tc.field)
		}
	}
}

// A state journal written before the knob was removed embeds
// "FinderWorkers" in each run's config, right after "Finder". Such a
// record still restores: its body is served byte-identically and it
// can still be branched from, because restore decodes configs
// leniently.
func TestJournalRestoresRecordWithFinderWorkers(t *testing.T) {
	body := `{"id":"r-000007","kind":"sim","state":"done","config_hash":"c1851475c3be4bc4",` +
		`"submitted":"2026-01-02T03:04:05Z","events":0,"config":{"Machine":"","Workload":"NASA",` +
		`"JobCount":60,"LoadScale":1,"EstimateFactor":0,"FailureNominal":500,"FailureScale":0,` +
		`"Scheduler":"balancing","Param":0.1,"CombineMax":false,"Backfill":2,"BackfillStrict":false,` +
		`"Migration":false,"MigrationCost":0,"Downtime":0,"CheckpointInterval":0,` +
		`"CheckpointPredictive":false,"CheckpointOverhead":0,"CheckpointRestart":0,` +
		`"Finder":"fast","FinderWorkers":4,"AnnealSeed":0,"Contention":"","RecordTimeline":false,` +
		`"CheckInvariants":false,"EventLog":null,"Telemetry":null,"Trace":null,"Flight":null,"Seed":0},` +
		`"result":{}}`
	p := persistedRun{Type: "run", Body: json.RawMessage(body)}
	var err error
	if p.CRC, err = p.checksum(); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.jsonl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{StatePath: path})
	if n, _ := metricValue(t, ts.URL, "service_journal_restore_skipped"); n != 0 {
		t.Fatalf("restore skipped %v records, want 0", n)
	}
	if _, got := getBody(t, ts.URL+"/v1/runs/r-000007"); string(got) != body+"\n" {
		t.Fatalf("restored record differs:\n%s\n---\n%s", got, body)
	}
	resp, view := branchOf(t, ts.URL, "r-000007", `{"at_seq":40,"branch":{"scheduler":"baseline"}}`)
	if resp.StatusCode != http.StatusOK || view.State != StateDone {
		t.Fatalf("branch off restored run: status %d state %s %s", resp.StatusCode, view.State, view.Error)
	}
}
