package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"bgsched/internal/resilience"
	"bgsched/internal/telemetry"
)

// builderCase is one table builder at a pinned scale, with the digests
// of its tables and of the journal it writes under Engine{Workers: 1}.
type builderCase struct {
	name   string
	points int
	jobs   int // per replicate; 0 = the builder takes no Options
	reps   int
	// tableSnaps places snapshots on the table (its series share runs);
	// bare lists series that carry none.
	tableSnaps bool
	bare       []int
	build      func(eng *Engine, opt Options) ([]*Table, error)
	tables     string
	journal    string
}

var builderCases = []builderCase{
	{name: "fig3", points: 27, jobs: 40, reps: 2, build: Figure3,
		tables:  "b05a58d59b8db432aa59fd1402647e4b2e60bdd4e06fff6484be1712a882a18c",
		journal: "3136fd24e400c2415f586d6d61fa78cc1460e83a72b7b44b0376e7a4489c5cc4"},
	{name: "fig5", points: 18, jobs: 40, reps: 2, tableSnaps: true, build: Figure5,
		tables:  "d7b2b21e6a272e637133e968a99a5cac45a75fdac38c956ca476110c4288d952",
		journal: "6ba379ba901e6e77f63abc6390aaf383908b9ff5a79492840fbc280364b03401"},
	{name: "krevat", points: 4, jobs: 60, reps: 2, tableSnaps: true,
		build: func(eng *Engine, opt Options) ([]*Table, error) {
			t, err := KrevatTable(eng, opt, "SDSC", 1.0)
			return []*Table{t}, err
		},
		tables:  "faa1b83e904558468f800b443fbcbcfd62503097b5307543fac439e237fae199",
		journal: "99a9bf1990774ab64e5cfabbaee891f06fc83cc1c4c3c6f84ea336800a3b5d61"},
	{name: "learned", points: 12, jobs: 60, reps: 2, bare: []int{0, 3},
		build: func(eng *Engine, opt Options) ([]*Table, error) {
			t, err := LearnedSweep(eng, opt, "SDSC")
			return []*Table{t}, err
		},
		tables:  "1df9014c67de890b9318df94fa0e20af31e4463b63d2f4a87d9dee6e99118ea6",
		journal: "5155db0fbb90c75bca17b6f89d90d373257b5c08063c2c3074ecbad55dc918ba"},
	{name: "golden", points: 6,
		build: func(eng *Engine, _ Options) ([]*Table, error) {
			t, err := GoldenSweep(eng)
			return []*Table{t}, err
		},
		tables:  "2b0e8cc832fd8be7fcbebb62b58dbbb888e3354a5797f239a097c5cab10375de",
		journal: "1438ddb29d6d48deaf2addd9a7207af4ce2f02e0fd822281af40956ddf5af0bc"},
}

// digestTables hashes everything a builder writes except telemetry:
// ids, titles, axes, row labels, series names and values, with NaN and
// infinities spelled out so a never-filled slot hashes too.
func digestTables(tabs []*Table) string {
	h := sha256.New()
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, t := range tabs {
		fmt.Fprintf(h, "table %q %q %q rows=%q\n", t.ID, t.Title, t.XLabel, t.Rows)
		for _, x := range t.X {
			fmt.Fprintf(h, "x %s\n", num(x))
		}
		for _, s := range t.Series {
			fmt.Fprintf(h, "series %q\n", s.Name)
			for _, y := range s.Y {
				fmt.Fprintf(h, "y %s\n", num(y))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuilderOutputsPinned pins every sweep-point builder byte for
// byte: the tables through a nil engine, the snapshot slots each one
// fills with telemetry on, the journal it writes sequentially (so a
// journal written by an earlier build still resumes), and a full resume
// from that journal.
func TestBuilderOutputsPinned(t *testing.T) {
	for _, bc := range builderCases {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			opt := Options{JobCount: bc.jobs, Replications: bc.reps}
			tabs, err := bc.build(nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := digestTables(tabs)
			if got != bc.tables {
				t.Errorf("table digest drifted:\n got  %s\n want %s", got, bc.tables)
			}

			path := filepath.Join(t.TempDir(), "j.jsonl")
			j, err := resilience.CreateJournal(path, resilience.JournalMeta{Tool: "test", ConfigHash: bc.name})
			if err != nil {
				t.Fatal(err)
			}
			topt := opt
			topt.CollectTelemetry = bc.jobs > 0
			tabs, err = bc.build(&Engine{Workers: 1, Journal: j}, topt)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if d := digestTables(tabs); d != got {
				t.Errorf("telemetry changed the tables: %s, without it %s", d, got)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if d := sha256.Sum256(raw); hex.EncodeToString(d[:]) != bc.journal {
				t.Errorf("journal digest drifted:\n got  %x\n want %s", d, bc.journal)
			}
			if bc.jobs > 0 {
				checkSnapshotSlots(t, bc, tabs)
			}

			jc, err := resilience.ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(jc.Points) != bc.points {
				t.Fatalf("journalled %d points, want %d", len(jc.Points), bc.points)
			}
			eng := &Engine{Workers: 2, Resumed: jc.Points}
			tabs, err = bc.build(eng, opt)
			if err != nil {
				t.Fatal(err)
			}
			if eng.ResumedPoints() != bc.points {
				t.Fatalf("resumed %d points, want %d", eng.ResumedPoints(), bc.points)
			}
			if d := digestTables(tabs); d != got {
				t.Errorf("resumed tables differ: %s, fresh %s", d, got)
			}
		})
	}
}

// checkSnapshotSlots requires the builder's snapshot placement: one
// per metric point on its series, one per x point on the table where
// series share runs, none on the bare series (the learned sweep's
// reference lines); each snapshot counts every replicate's finishes.
func checkSnapshotSlots(t *testing.T, bc builderCase, tabs []*Table) {
	t.Helper()
	finishes := int64(bc.reps * bc.jobs)
	check := func(where string, snaps []*telemetry.Snapshot, n int) {
		if len(snaps) != n {
			t.Fatalf("%s: %d snapshot slots, want %d", where, len(snaps), n)
		}
		for i, s := range snaps {
			if s == nil {
				t.Fatalf("%s: slot %d empty", where, i)
			}
			if got := s.Counters["sim.finishes"]; got != finishes {
				t.Fatalf("%s: slot %d sim.finishes = %d, want %d", where, i, got, finishes)
			}
		}
	}
	for _, tab := range tabs {
		n := len(tab.X)
		if bc.tableSnaps {
			check(bc.name+" table", tab.Telemetry, n)
		} else if tab.Telemetry != nil {
			t.Fatalf("%s: table-level snapshots on a per-series figure", bc.name)
		}
		for si, s := range tab.Series {
			where := fmt.Sprintf("%s series %q", bc.name, s.Name)
			if bc.tableSnaps || slices.Contains(bc.bare, si) {
				if s.Telemetry != nil {
					t.Fatalf("%s: unexpected snapshots", where)
				}
				continue
			}
			check(where, s.Telemetry, n)
		}
	}
}
