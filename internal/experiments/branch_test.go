package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"bgsched/internal/snapshot"
)

// Snapshot files written before the finder-worker knob was removed
// embed "FinderWorkers" in their parent config. They still decode and
// restore: ParentConfig reads the embedded config leniently.
func TestParentConfigIgnoresRetiredFinderWorkers(t *testing.T) {
	ctx := context.Background()
	cfg := RunConfig{Workload: "NASA", JobCount: 40, FailureNominal: 300,
		Scheduler: SchedBalancing, Param: 0.1, Finder: "fast", Seed: 2}
	st, err := SnapshotAt(ctx, cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(st.Config, []byte(`"Finder":"fast",`), []byte(`"Finder":"fast","FinderWorkers":4,`), 1)
	if bytes.Equal(old, st.Config) {
		t.Fatalf("embedded config has no Finder field:\n%s", st.Config)
	}
	st.Config = old
	var file bytes.Buffer
	if _, err := st.Encode(&file); err != nil {
		t.Fatal(err)
	}
	restored, _, err := snapshot.Decode(&file)
	if err != nil {
		t.Fatal(err)
	}

	parent, err := ParentConfig(restored)
	if err != nil {
		t.Fatalf("ParentConfig: %v", err)
	}
	if want := cfg.Canonical(); !reflect.DeepEqual(parent, want) {
		t.Fatalf("ParentConfig = %+v, want %+v", parent, want)
	}
	res, err := ResumeFromSnapshot(ctx, parent, restored)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != cfg.JobCount {
		t.Fatalf("resumed run finished %d of %d jobs", res.Summary.Jobs, cfg.JobCount)
	}
}
