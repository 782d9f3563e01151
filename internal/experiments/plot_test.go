package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func plotTable() *Table {
	return &Table{
		ID: "figT", Title: "Plot demo", XLabel: "x",
		X: []float64{0, 1, 2, 3},
		Series: []Series{
			{Name: "up", Y: []float64{0, 1, 2, 3}},
			{Name: "down", Y: []float64{3, 2, 1, 0}},
		},
	}
}

func TestRenderPlot(t *testing.T) {
	var buf bytes.Buffer
	if err := plotTable().RenderPlot(&buf, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figT", "legend: * up, o down", "x=0 .. 3", "!"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Header + 8 grid rows + axis + label + legend.
	if len(lines) < 12 {
		t.Fatalf("plot has %d lines", len(lines))
	}
}

func TestRenderPlotHeightClamp(t *testing.T) {
	var buf bytes.Buffer
	if err := plotTable().RenderPlot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend") {
		t.Fatal("tiny height broke rendering")
	}
}

func TestRenderPlotFlatSeries(t *testing.T) {
	tab := &Table{
		ID: "flat", XLabel: "x", X: []float64{0, 1},
		Series: []Series{{Name: "const", Y: []float64{5, 5}}},
	}
	var buf bytes.Buffer
	if err := tab.RenderPlot(&buf, 6); err != nil {
		t.Fatalf("flat series: %v", err)
	}
}

func TestRenderPlotErrors(t *testing.T) {
	var buf bytes.Buffer
	empty := &Table{ID: "e", XLabel: "x"}
	if err := empty.RenderPlot(&buf, 8); err == nil {
		t.Fatal("empty table plotted")
	}
	ragged := &Table{ID: "r", XLabel: "x", X: []float64{1, 2},
		Series: []Series{{Name: "s", Y: []float64{1}}}}
	if err := ragged.RenderPlot(&buf, 8); err == nil {
		t.Fatal("ragged table plotted")
	}
}

func TestFigureWithResponseMetric(t *testing.T) {
	tables, err := Figure4(nil, Options{JobCount: 50, Metric: MetricResponse, Replications: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables[0].Title, "response") {
		t.Fatalf("title = %q", tables[0].Title)
	}
	tables2, err := Figure4(nil, Options{JobCount: 50, Metric: "bogus", Replications: 1})
	if err == nil {
		t.Fatalf("bogus metric accepted: %v", tables2)
	}
}
