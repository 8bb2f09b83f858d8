package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAppendAndBounds(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Append(1, 5)
	s.Append(10, -2)
	s.Append(math.Inf(1), 7) // skipped in bounds
	s.Append(4, math.NaN())  // skipped in bounds
	minX, maxX, minY, maxY, ok := s.Bounds()
	if !ok {
		t.Fatal("Bounds found no finite points")
	}
	if minX != 1 || maxX != 10 || minY != -2 || maxY != 5 {
		t.Errorf("bounds = %g %g %g %g", minX, maxX, minY, maxY)
	}
	empty := Series{Name: "empty"}
	if _, _, _, _, ok := empty.Bounds(); ok {
		t.Error("empty series reported finite bounds")
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Table I", "Parameter", "Setting", "Unit")
	if err := tbl.AddRow("Capacity", "120", "GB"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddRow("Probe-array size", "64 x 64", "probe"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.rows) != 2 {
		t.Errorf("rows = %d", len(tbl.rows))
	}
	if err := tbl.AddRow("too", "few"); err == nil {
		t.Error("short row accepted")
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Parameter", "Capacity", "120", "64 x 64", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("rendered table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestSeriesCSV(t *testing.T) {
	a := Series{Name: "energy [nJ/b]", X: []float64{1, 2}, Y: []float64{30, 20}}
	b := Series{Name: "capacity [GB]", X: []float64{1, 2}, Y: []float64{100, 106}}
	var buf bytes.Buffer
	if err := SeriesCSV(&buf, "buffer [kB]", a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantHeader := "buffer [kB],energy [nJ/b],capacity [GB]\n"
	if !strings.HasPrefix(out, wantHeader) {
		t.Errorf("header = %q, want %q", out, wantHeader)
	}
	if !strings.Contains(out, "1,30,100\n") || !strings.Contains(out, "2,20,106\n") {
		t.Errorf("rows wrong: %q", out)
	}
	// Names holding commas or quotes are quoted RFC 4180-style.
	buf.Reset()
	quoted := Series{Name: `needs "quotes", commas`, X: []float64{1}, Y: []float64{2}}
	if err := SeriesCSV(&buf, "x", quoted); err != nil {
		t.Fatal(err)
	}
	if out, want := buf.String(), "x,\"needs \"\"quotes\"\", commas\"\n"; !strings.HasPrefix(out, want) {
		t.Errorf("header = %q, want prefix %q", out, want)
	}
}

func TestSeriesCSVErrors(t *testing.T) {
	if err := SeriesCSV(&bytes.Buffer{}, "x"); err == nil {
		t.Error("no series accepted")
	}
	a := Series{Name: "a", X: []float64{1, 2}, Y: []float64{1, 2}}
	b := Series{Name: "b", X: []float64{1}, Y: []float64{1}}
	if err := SeriesCSV(&bytes.Buffer{}, "x", a, b); err == nil {
		t.Error("mismatched series lengths accepted")
	}
}

func TestPlotLinear(t *testing.T) {
	s := Series{Name: "line", X: []float64{0, 1, 2, 3, 4}, Y: []float64{0, 1, 2, 3, 4}}
	var buf bytes.Buffer
	err := Plot(&buf, PlotConfig{Title: "diag", Width: 20, Height: 10, XLabel: "x", YLabel: "y"}, s)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "diag") || !strings.Contains(out, "* line") {
		t.Errorf("plot missing title or legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("plot has no markers:\n%s", out)
	}
	if !strings.Contains(out, "x: x   y: y") {
		t.Errorf("plot missing axis labels:\n%s", out)
	}
}

func TestPlotLogAxes(t *testing.T) {
	// Log-log straight line: y = x over decades.
	var s Series
	s.Name = "loglog"
	for _, x := range []float64{10, 100, 1000, 10000} {
		s.Append(x, x)
	}
	var buf bytes.Buffer
	err := Plot(&buf, PlotConfig{Width: 40, Height: 12, XScale: Log10, YScale: Log10}, s)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Axis labels come back in original (unscaled) units.
	if !strings.Contains(out, "1e+04") && !strings.Contains(out, "10000") {
		t.Errorf("log axis label missing:\n%s", out)
	}
}

func TestPlotMultipleSeriesDistinctMarkers(t *testing.T) {
	a := Series{Name: "first", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}}
	b := Series{Name: "second", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}}
	var buf bytes.Buffer
	if err := Plot(&buf, PlotConfig{Width: 20, Height: 10}, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "* first") || !strings.Contains(out, "o second") {
		t.Errorf("legend wrong:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Errorf("second marker missing:\n%s", out)
	}
}

func TestPlotErrors(t *testing.T) {
	if err := Plot(&bytes.Buffer{}, PlotConfig{}); err == nil {
		t.Error("no series accepted")
	}
	// All points invalid on a log axis.
	s := Series{Name: "negative", X: []float64{-1, -2}, Y: []float64{-3, -4}}
	if err := Plot(&bytes.Buffer{}, PlotConfig{XScale: Log10, YScale: Log10}, s); err == nil {
		t.Error("log plot of negative data accepted")
	}
}

func TestPlotConstantSeries(t *testing.T) {
	// Constant series must not divide by zero.
	s := Series{Name: "flat", X: []float64{1, 2, 3}, Y: []float64{5, 5, 5}}
	var buf bytes.Buffer
	if err := Plot(&buf, PlotConfig{Width: 10, Height: 5}, s); err != nil {
		t.Fatalf("constant series: %v", err)
	}
}

// Property: the rendered plot always has the requested number of canvas rows
// and every marker stays within the canvas.
func TestQuickPlotDimensions(t *testing.T) {
	f := func(seed uint8, n uint8) bool {
		count := int(n%20) + 2
		var s Series
		s.Name = "q"
		for i := 0; i < count; i++ {
			s.Append(float64(i), float64((int(seed)+i*7)%37)-18)
		}
		var buf bytes.Buffer
		cfg := PlotConfig{Width: 30, Height: 10}
		if err := Plot(&buf, cfg, s); err != nil {
			return false
		}
		lines := strings.Split(buf.String(), "\n")
		canvas := 0
		for _, l := range lines {
			if strings.Contains(l, "|") {
				canvas++
			}
		}
		return canvas == 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
