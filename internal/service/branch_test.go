package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// branchOf posts a branch request against a parent run id and returns
// the terminal view (?wait=1).
func branchOf(t *testing.T, baseURL, parentID, body string) (*http.Response, RunView) {
	t.Helper()
	resp, b := postJSON(t, baseURL+"/v1/runs/"+parentID+"/branch?wait=1", body)
	return resp, decodeView(t, b)
}

// TestBranchEndToEnd covers the what-if replay path: run a parent,
// branch it under a different scheduler, and check the branch result is
// a complete, distinct simulation outcome wired to its parent.
func TestBranchEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, b := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent: status %d: %s", resp.StatusCode, b)
	}
	parent := decodeView(t, b)
	if parent.State != StateDone {
		t.Fatalf("parent state %s: %s", parent.State, parent.Error)
	}
	var parentRes SimResult
	if err := json.Unmarshal(parent.Result, &parentRes); err != nil {
		t.Fatal(err)
	}

	resp, view := branchOf(t, ts.URL, parent.ID, `{"at_seq":80,"branch":{"scheduler":"baseline"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("branch: status %d", resp.StatusCode)
	}
	if view.State != StateDone {
		t.Fatalf("branch state %s: %s", view.State, view.Error)
	}
	if view.Kind != kindBranch {
		t.Fatalf("branch kind %q", view.Kind)
	}
	if view.Events == 0 {
		t.Fatal("branch run streamed no events")
	}
	var br BranchResult
	if err := json.Unmarshal(view.Result, &br); err != nil {
		t.Fatal(err)
	}
	if br.ParentID != parent.ID || br.AtSeq != 80 {
		t.Fatalf("branch result parentage: %+v", br)
	}
	if br.ParentHash != parent.ConfigHash {
		t.Fatalf("branch parent hash %s, parent run hash %s", br.ParentHash, parent.ConfigHash)
	}
	if br.Summary.Jobs != parentRes.Summary.Jobs {
		t.Fatalf("branch finished %d jobs, parent %d", br.Summary.Jobs, parentRes.Summary.Jobs)
	}
}

// TestBranchSnapshotCacheReuse pins the cached-prefix property: sibling
// branches off the same (parent, at_seq) point re-simulate the prefix
// once. The reuse is observable only in the service counters — results
// stay byte-identical either way.
func TestBranchSnapshotCacheReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, b := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent: status %d: %s", resp.StatusCode, b)
	}
	parent := decodeView(t, b)

	if resp, view := branchOf(t, ts.URL, parent.ID, `{"at_seq":80,"branch":{"scheduler":"baseline"}}`); resp.StatusCode != http.StatusOK || view.State != StateDone {
		t.Fatalf("first branch: status %d state %s %s", resp.StatusCode, view.State, view.Error)
	}
	if v, ok := scrapeMetric(t, ts.URL, "service_branch_snapshot_misses"); !ok || v != 1 {
		t.Fatalf("snapshot misses after first branch = %v (present %v), want 1", v, ok)
	}
	// A different branch off the same point must hit the snapshot cache.
	if resp, view := branchOf(t, ts.URL, parent.ID, `{"at_seq":80,"branch":{"scheduler":"tiebreak","param":0.5}}`); resp.StatusCode != http.StatusOK || view.State != StateDone {
		t.Fatalf("second branch: status %d state %s %s", resp.StatusCode, view.State, view.Error)
	}
	if v, ok := scrapeMetric(t, ts.URL, "service_branch_snapshot_hits"); !ok || v != 1 {
		t.Fatalf("snapshot hits after second branch = %v (present %v), want 1", v, ok)
	}
	if v, _ := scrapeMetric(t, ts.URL, "service_branch_snapshot_misses"); v != 1 {
		t.Fatalf("snapshot misses after second branch = %v, want still 1", v)
	}

	// An identical branch resubmission is a whole-result cache hit and
	// never reaches the executor.
	resp, _ = postJSON(t, ts.URL+"/v1/runs/"+parent.ID+"/branch?wait=1", `{"at_seq":80,"branch":{"scheduler":"baseline"}}`)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("identical branch resubmission: X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
}

// TestBranchNoopMatchesParent is the service-level equivalence pin: an
// empty branch replayed from any boundary must reproduce the parent's
// summary exactly.
func TestBranchNoopMatchesParent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent: status %d: %s", resp.StatusCode, b)
	}
	parent := decodeView(t, b)
	var parentRes SimResult
	if err := json.Unmarshal(parent.Result, &parentRes); err != nil {
		t.Fatal(err)
	}
	_, view := branchOf(t, ts.URL, parent.ID, `{"at_seq":40,"branch":{}}`)
	if view.State != StateDone {
		t.Fatalf("no-op branch state %s: %s", view.State, view.Error)
	}
	var br BranchResult
	if err := json.Unmarshal(view.Result, &br); err != nil {
		t.Fatal(err)
	}
	if br.Summary != parentRes.Summary {
		t.Fatalf("no-op branch summary diverged:\nparent %+v\nbranch %+v", parentRes.Summary, br.Summary)
	}
	if br.JobKills != parentRes.JobKills || br.Backfills != parentRes.Backfills {
		t.Fatalf("no-op branch counters diverged: %+v vs %+v", br.SimResult, parentRes)
	}
}

// TestBranchRejections covers the refusal surface: unknown parent,
// non-sim parent, malformed seq, invalid branch config, and a seq past
// the end of the parent's schedule.
func TestBranchRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := postJSON(t, ts.URL+"/v1/runs?wait=1", tinyRunBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parent: status %d: %s", resp.StatusCode, b)
	}
	parent := decodeView(t, b)

	if resp, _ := postJSON(t, ts.URL+"/v1/runs/r-999999/branch", `{"at_seq":10}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown parent: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/runs/"+parent.ID+"/branch", `{"at_seq":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("at_seq 0: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/runs/"+parent.ID+"/branch", `{"at_seq":10,"branch":{"scheduler":"warp-drive"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scheduler: status %d, want 400", resp.StatusCode)
	}

	// Figure runs cannot be branched.
	resp, b = postJSON(t, ts.URL+"/v1/figures/fig3?wait=1", `{"Options":{"JobCount":40,"FailureCounts":[100]}}`)
	if resp.StatusCode == http.StatusOK {
		fig := decodeView(t, b)
		if resp, _ := postJSON(t, ts.URL+"/v1/runs/"+fig.ID+"/branch", `{"at_seq":10}`); resp.StatusCode != http.StatusConflict {
			t.Fatalf("figure parent: status %d, want 409", resp.StatusCode)
		}
	}

	// A seq the parent run never reaches fails the branch run itself.
	_, view := branchOf(t, ts.URL, parent.ID, `{"at_seq":1000000000}`)
	if view.State != StateFailed {
		t.Fatalf("unreachable seq: state %s, want failed", view.State)
	}
	if want := "snapshot point not reached"; !strings.Contains(view.Error, want) {
		t.Fatalf("unreachable seq error %q, want substring %q", view.Error, want)
	}
}
