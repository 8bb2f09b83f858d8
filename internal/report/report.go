// Package report provides the small set of presentation helpers the command
// line tools and benchmarks use to regenerate the paper's tables and figures:
// named data series, fixed-width tables, CSV output and ASCII plots with
// linear or logarithmic axes.
//
// Everything renders to an io.Writer so the same code backs the CLI, the
// benchmark harness and golden-file tests.
package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is a named sequence of (x, y) points.
type Series struct {
	// Name labels the series in legends and CSV headers.
	Name string
	// X holds the abscissa values.
	X []float64
	// Y holds the ordinate values; len(Y) must equal len(X).
	Y []float64
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.X) }

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Bounds returns the finite min/max of the X and Y values. Non-finite values
// are skipped; ok is false when no finite point exists.
func (s Series) Bounds() (minX, maxX, minY, maxY float64, ok bool) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for i := range s.X {
		x, y := s.X[i], s.Y[i]
		if !isFinite(x) || !isFinite(y) {
			continue
		}
		ok = true
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	return minX, maxX, minY, maxY, ok
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Table is a simple fixed-width table with named columns.
type Table struct {
	// Title is printed above the table.
	Title string
	// Columns holds the column headers.
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the number of cells must match the column count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("report: row has %d cells, table %q has %d columns", len(cells), t.Title, len(t.Columns))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	separators := make([]string, len(t.Columns))
	for i := range separators {
		separators[i] = strings.Repeat("-", widths[i])
	}
	writeRow(separators)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func csvEscape(cell string) string {
	if strings.ContainsAny(cell, ",\"\n") {
		return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
	}
	return cell
}

// SeriesCSV writes one or more series sharing an x axis as CSV: the first
// column is x, followed by one column per series. The series must have equal
// lengths and identical X values.
func SeriesCSV(w io.Writer, xLabel string, series ...Series) error {
	if len(series) == 0 {
		return errors.New("report: no series")
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("report: series %q has %d points, expected %d", s.Name, s.Len(), n)
		}
	}
	var sb strings.Builder
	sb.WriteString(csvEscape(xLabel))
	for _, s := range series {
		sb.WriteString(",")
		sb.WriteString(csvEscape(s.Name))
	}
	sb.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%g", series[0].X[i])
		for _, s := range series {
			fmt.Fprintf(&sb, ",%g", s.Y[i])
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Scale selects a linear or logarithmic axis mapping.
type Scale int

// Axis scales.
const (
	// Linear maps values proportionally.
	Linear Scale = iota
	// Log10 maps values by their decimal logarithm (positive values only).
	Log10
)

// PlotConfig controls ASCII rendering.
type PlotConfig struct {
	// Title is printed above the plot.
	Title string
	// Width and Height are the canvas dimensions in characters (excluding
	// axis labels). Defaults: 72 x 20.
	Width  int
	Height int
	// XScale and YScale select the axis mappings.
	XScale Scale
	YScale Scale
	// XLabel and YLabel name the axes.
	XLabel string
	YLabel string
}

// Plot renders one or more series as an ASCII scatter/line chart. Each series
// is drawn with a distinct marker; a legend maps markers to names.
func Plot(w io.Writer, cfg PlotConfig, series ...Series) error {
	if len(series) == 0 {
		return errors.New("report: no series to plot")
	}
	width, height := cfg.Width, cfg.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 20
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

	// Global bounds across all series, in scaled space.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	anyPoint := false
	for _, s := range series {
		for i := range s.X {
			x, okX := scaleValue(s.X[i], cfg.XScale)
			y, okY := scaleValue(s.Y[i], cfg.YScale)
			if !okX || !okY {
				continue
			}
			anyPoint = true
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if !anyPoint {
		return errors.New("report: no plottable points (check log scales on non-positive data)")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		marker := markers[si%len(markers)]
		for i := range s.X {
			x, okX := scaleValue(s.X[i], cfg.XScale)
			y, okY := scaleValue(s.Y[i], cfg.YScale)
			if !okX || !okY {
				continue
			}
			col := int(math.Round((x - minX) / (maxX - minX) * float64(width-1)))
			row := height - 1 - int(math.Round((y-minY)/(maxY-minY)*float64(height-1)))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = marker
			}
		}
	}

	var sb strings.Builder
	if cfg.Title != "" {
		sb.WriteString(cfg.Title)
		sb.WriteString("\n")
	}
	topLabel := axisLabel(maxY, cfg.YScale)
	bottomLabel := axisLabel(minY, cfg.YScale)
	labelWidth := len(topLabel)
	if len(bottomLabel) > labelWidth {
		labelWidth = len(bottomLabel)
	}
	for r, line := range grid {
		label := strings.Repeat(" ", labelWidth)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelWidth, topLabel)
		case height - 1:
			label = fmt.Sprintf("%*s", labelWidth, bottomLabel)
		}
		sb.WriteString(label)
		sb.WriteString(" |")
		sb.Write(line)
		sb.WriteString("\n")
	}
	sb.WriteString(strings.Repeat(" ", labelWidth))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteString("\n")
	sb.WriteString(strings.Repeat(" ", labelWidth+2))
	left := axisLabel(minX, cfg.XScale)
	right := axisLabel(maxX, cfg.XScale)
	gap := width - len(left) - len(right)
	if gap < 1 {
		gap = 1
	}
	sb.WriteString(left)
	sb.WriteString(strings.Repeat(" ", gap))
	sb.WriteString(right)
	sb.WriteString("\n")
	if cfg.XLabel != "" || cfg.YLabel != "" {
		fmt.Fprintf(&sb, "x: %s   y: %s\n", cfg.XLabel, cfg.YLabel)
	}
	for si, s := range series {
		fmt.Fprintf(&sb, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func scaleValue(v float64, s Scale) (float64, bool) {
	if !isFinite(v) {
		return 0, false
	}
	if s == Log10 {
		if v <= 0 {
			return 0, false
		}
		return math.Log10(v), true
	}
	return v, true
}

func axisLabel(scaled float64, s Scale) string {
	if s == Log10 {
		return fmt.Sprintf("%.3g", math.Pow(10, scaled))
	}
	return fmt.Sprintf("%.3g", scaled)
}
