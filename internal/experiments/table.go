package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"bgsched/internal/telemetry"
)

// Series is one curve of a figure.
type Series struct {
	Name string    `json:"name"`
	Y    []float64 `json:"y"`
	// Telemetry carries one snapshot per sweep point (aligned with Y)
	// when Options.CollectTelemetry is set and each series runs its own
	// simulations; nil otherwise. The snapshot aggregates the point's
	// replicates, so sweep curves carry the per-point search cost
	// (finder.*), decision latency (sched.*) and distribution data
	// (sim.job.*) alongside the headline metric.
	Telemetry []*telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Table is the data behind one figure (or one panel of a multi-panel
// figure): an x axis and one or more named series over it.
type Table struct {
	ID     string    `json:"id"` // e.g. "fig3"
	Title  string    `json:"title"`
	XLabel string    `json:"x_label"`
	X      []float64 `json:"x"`
	// Rows optionally labels each x point with a categorical name (the
	// tournament rows are finder/workload/contention combinations, not
	// numbers). When set it must align with X and replaces the numeric
	// x column in rendered output.
	Rows   []string `json:"rows,omitempty"`
	Series []Series `json:"series"`
	// Telemetry carries one snapshot per x point for tables whose
	// series all derive from the same runs (the capacity splits);
	// per-series telemetry lives on Series instead.
	Telemetry []*telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Validate checks the series lengths agree with the axis.
func (t *Table) Validate() error {
	if t.Rows != nil && len(t.Rows) != len(t.X) {
		return fmt.Errorf("experiments: table %s has %d row labels, axis has %d",
			t.ID, len(t.Rows), len(t.X))
	}
	for _, s := range t.Series {
		if len(s.Y) != len(t.X) {
			return fmt.Errorf("experiments: table %s: series %q has %d points, axis has %d",
				t.ID, s.Name, len(s.Y), len(t.X))
		}
		if s.Telemetry != nil && len(s.Telemetry) != len(t.X) {
			return fmt.Errorf("experiments: table %s: series %q has %d snapshots, axis has %d",
				t.ID, s.Name, len(s.Telemetry), len(t.X))
		}
	}
	if t.Telemetry != nil && len(t.Telemetry) != len(t.X) {
		return fmt.Errorf("experiments: table %s has %d snapshots, axis has %d",
			t.ID, len(t.Telemetry), len(t.X))
	}
	return nil
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(tw, strings.Join(header, "\t")+"\t"); err != nil {
		return err
	}
	for i, x := range t.X {
		row := []string{t.rowLabel(i, x)}
		for _, s := range t.Series {
			row = append(row, formatNum(s.Y[i]))
		}
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")+"\t"); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// RenderCSV writes the table as CSV with a header row.
func (t *Table) RenderCSV(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	cols := []string{t.XLabel}
	for _, s := range t.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range t.X {
		row := []string{t.rowLabel(i, x)}
		for _, s := range t.Series {
			row = append(row, formatNum(s.Y[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// rowLabel resolves the first column of row i: the categorical label
// when the table carries one, the numeric x value otherwise.
func (t *Table) rowLabel(i int, x float64) string {
	if t.Rows != nil {
		return t.Rows[i]
	}
	return formatNum(x)
}

// formatNum prints integers without decimals and small floats with
// enough precision to be useful.
func formatNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if v != 0 && (v < 0.01 && v > -0.01) {
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("%.3f", v)
}
