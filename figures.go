package memstream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"memstream/internal/config"
	"memstream/internal/core"
	"memstream/internal/explore"
	"memstream/internal/parallel"
	"memstream/internal/report"
	"memstream/internal/units"
)

// This file contains the generators that regenerate every table and figure of
// the paper's evaluation section:
//
//	Table I           — TableIStudy / RenderTableI
//	Section III-A.1   — BreakEvenTable (MEMS vs 1.8-inch disk break-even buffer)
//	Figure 2a and 2b  — Figure2 (energy, capacity and lifetime vs buffer size)
//	Figure 3a/3b/3c   — Figure3 (required buffer vs streaming rate per goal)

// TableIStudy returns the Table I parameter set as a serialisable study
// configuration.
func TableIStudy() config.Study { return config.TableI() }

// RenderTableI writes the Table I parameter listing as a plain-text table.
func RenderTableI(w io.Writer) error {
	s := config.TableI()
	d := s.Device
	wl := s.Workload
	tbl := report.NewTable("Table I: settings of the modelled MEMS storage device and workload",
		"Parameter", "Setting", "Unit")
	rows := []struct {
		name, setting, unit string
	}{
		{"Probe-array size", fmt.Sprintf("%d x %d", d.ProbeArrayRows, d.ProbeArrayCols), "probe"},
		{"Active probes", fmt.Sprintf("%d", d.ActiveProbes), "probe"},
		{"Probe-field area", fmt.Sprintf("%.0f x %.0f", d.ProbeFieldMicrons, d.ProbeFieldMicrons), "um^2"},
		{"Capacity", fmt.Sprintf("%.0f", d.CapacityGB), "GB"},
		{"Per-probe data rate", fmt.Sprintf("%.0f", d.PerProbeRateKbps), "kbps"},
		{"Fast/Slow seek time", fmt.Sprintf("%.0f", d.SeekTimeMs), "ms"},
		{"Shutdown time", fmt.Sprintf("%.0f", d.ShutdownTimeMs), "ms"},
		{"I/O overhead time", fmt.Sprintf("%.0f", d.IOOverheadMs), "ms"},
		{"Read/Write power", fmt.Sprintf("%.0f", d.ReadWritePowerMW), "mW"},
		{"Fast/Slow seek power", fmt.Sprintf("%.0f", d.SeekPowerMW), "mW"},
		{"Standby power", fmt.Sprintf("%.0f", d.StandbyPowerMW), "mW"},
		{"Idle power", fmt.Sprintf("%.0f", d.IdlePowerMW), "mW"},
		{"Shutdown power", fmt.Sprintf("%.0f", d.ShutdownPowerMW), "mW"},
		{"Probe write cycles", "100 & 200", "cycles"},
		{"Springs duty cycles", "1e8 & 1e12", "cycles"},
		{"Hours per day", fmt.Sprintf("%.0f", wl.HoursPerDay), "hours"},
		{"Writes percentage", fmt.Sprintf("%.0f", wl.WritesPercent), "%"},
		{"Best-effort fraction", fmt.Sprintf("%.0f", wl.BestEffortPercent), "%"},
		{"Stream bit rate", fmt.Sprintf("%.0f - %.0f", s.RateRange.MinKbps, s.RateRange.MaxKbps), "kbps"},
	}
	for _, r := range rows {
		if err := tbl.AddRow(r.name, r.setting, r.unit); err != nil {
			return wrapErr(err)
		}
	}
	return wrapErr(tbl.Render(w))
}

// BreakEvenRow is one row of the Section III-A.1 comparison.
type BreakEvenRow struct {
	// Rate is the streaming bit rate.
	Rate BitRate
	// MEMS is the MEMS break-even buffer.
	MEMS Size
	// Disk is the 1.8-inch drive break-even buffer.
	Disk Size
	// Ratio is Disk / MEMS.
	Ratio float64
}

// BreakEvenTable computes the break-even buffer of the MEMS device and the
// disk baseline over the given rates (Section III-A.1 of the paper: MEMS
// needs 0.07-8.87 kB where the disk needs 0.08-9.29 MB). The per-rate
// inversions fan out over one worker per CPU in input order; use
// BreakEvenTableContext to bound the pool or cancel the computation.
func BreakEvenTable(dev Device, disk Disk, rates []BitRate) ([]BreakEvenRow, error) {
	return BreakEvenTableContext(context.Background(), 0, dev, disk, rates)
}

// BreakEvenTableContext is BreakEvenTable with explicit cancellation and
// worker bound (zero means one worker per CPU, one forces the sequential
// path). The rows are identical at any worker count.
func BreakEvenTableContext(ctx context.Context, workers int, dev Device, disk Disk, rates []BitRate) ([]BreakEvenRow, error) {
	if len(rates) == 0 {
		return nil, errors.New("memstream: no rates supplied")
	}
	rows, err := parallel.Map(ctx, workers, len(rates), func(_ context.Context, i int) (BreakEvenRow, error) {
		rate := rates[i]
		m, err := BreakEvenBuffer(dev, rate)
		if err != nil {
			return BreakEvenRow{}, err
		}
		d, err := DiskBreakEvenBuffer(disk, rate)
		if err != nil {
			return BreakEvenRow{}, err
		}
		return BreakEvenRow{Rate: rate, MEMS: m, Disk: d, Ratio: d.DivideBy(m)}, nil
	})
	return rows, wrapErr(err)
}

// RenderBreakEvenTable writes the break-even comparison as a table.
func RenderBreakEvenTable(w io.Writer, rows []BreakEvenRow) error {
	tbl := report.NewTable("Break-even streaming buffer: MEMS vs 1.8-inch disk (Section III-A.1)",
		"Rate [kbps]", "MEMS [kB]", "Disk [MB]", "Disk/MEMS")
	for _, r := range rows {
		if err := tbl.AddRow(
			fmt.Sprintf("%.0f", r.Rate.Kilobits()),
			fmt.Sprintf("%.2f", r.MEMS.KiBytes()),
			fmt.Sprintf("%.2f", r.Disk.MBytes()),
			fmt.Sprintf("%.0f", r.Ratio),
		); err != nil {
			return wrapErr(err)
		}
	}
	return wrapErr(tbl.Render(w))
}

// Figure2 holds the data behind Fig. 2a and 2b: the forward model curves
// versus buffer size at a fixed streaming rate.
type Figure2 struct {
	// Rate is the fixed streaming rate (1024 kbps in the paper).
	Rate BitRate
	// BreakEven is the break-even buffer the x axis is scaled from.
	BreakEven Size
	// BufferKB is the x axis in binary kilobytes.
	BufferKB []float64
	// EnergyNJPerBit is the Fig. 2a left axis.
	EnergyNJPerBit []float64
	// UserCapacityGB is the Fig. 2a right axis.
	UserCapacityGB []float64
	// SpringsYears and ProbesYears are the Fig. 2b curves.
	SpringsYears []float64
	ProbesYears  []float64
}

// GenerateFigure2 evaluates the forward curves over 1-20 times the break-even
// buffer at the given rate, as the paper does for Fig. 2. The per-point
// evaluation fans out over one worker per CPU; use GenerateFigure2Context to
// bound the pool or cancel the generation.
func GenerateFigure2(dev Device, rate BitRate, points int) (*Figure2, error) {
	return GenerateFigure2Context(context.Background(), 0, dev, rate, points)
}

// GenerateFigure2Context is GenerateFigure2 with explicit cancellation and
// worker bound (zero means one worker per CPU, one forces the sequential
// path). The figure is identical at any worker count.
func GenerateFigure2Context(ctx context.Context, workers int, dev Device, rate BitRate, points int) (*Figure2, error) {
	if points < 2 {
		return nil, errors.New("memstream: need at least two points")
	}
	model, err := core.New(dev, rate)
	if err != nil {
		return nil, wrapErr(err)
	}
	be, err := model.BreakEvenBuffer()
	if err != nil {
		return nil, wrapErr(err)
	}
	lo := be
	if min := model.MinimumBuffer(); lo < min {
		lo = min
	}
	hi := be.Scale(20)
	curve, err := explore.SweepBufferContext(ctx, dev, rate, core.Options{}, lo, hi, points, workers)
	if err != nil {
		return nil, wrapErr(err)
	}
	fig := &Figure2{Rate: rate, BreakEven: be}
	for _, pt := range curve.Points {
		fig.BufferKB = append(fig.BufferKB, pt.Buffer.KiBytes())
		fig.EnergyNJPerBit = append(fig.EnergyNJPerBit, pt.EnergyPerBit.NanojoulesPerBit())
		fig.UserCapacityGB = append(fig.UserCapacityGB, pt.UserCapacity.GBytes())
		fig.SpringsYears = append(fig.SpringsYears, pt.SpringsLifetime.Years())
		fig.ProbesYears = append(fig.ProbesYears, pt.ProbesLifetime.Years())
	}
	return fig, nil
}

// Series converts the figure into named report series sharing the buffer axis.
func (f *Figure2) Series() (energySeries, capacitySeries, springsSeries, probesSeries report.Series) {
	energySeries = report.Series{Name: "per-bit energy [nJ/b]", X: f.BufferKB, Y: f.EnergyNJPerBit}
	capacitySeries = report.Series{Name: "user capacity [GB]", X: f.BufferKB, Y: f.UserCapacityGB}
	springsSeries = report.Series{Name: "springs lifetime [years]", X: f.BufferKB, Y: f.SpringsYears}
	probesSeries = report.Series{Name: "probes lifetime [years]", X: f.BufferKB, Y: f.ProbesYears}
	return
}

// Render writes Fig. 2a and 2b as ASCII plots plus a CSV block.
func (f *Figure2) Render(w io.Writer) error {
	e, c, s, p := f.Series()
	if err := report.Plot(w, report.PlotConfig{
		Title:  fmt.Sprintf("Figure 2a: per-bit energy and capacity vs buffer size (rs = %v)", f.Rate),
		XLabel: "buffer [kB]", YLabel: "nJ/b | GB",
	}, e, c); err != nil {
		return wrapErr(err)
	}
	if err := report.Plot(w, report.PlotConfig{
		Title:  fmt.Sprintf("Figure 2b: springs and probes lifetime vs buffer size (rs = %v)", f.Rate),
		XLabel: "buffer [kB]", YLabel: "years",
	}, s, p); err != nil {
		return wrapErr(err)
	}
	fmt.Fprintln(w)
	return wrapErr(report.SeriesCSV(w, "buffer [kB]", e, c, s, p))
}

// Figure3 holds the data behind one panel of Fig. 3: buffer requirements
// versus streaming rate for one design goal and device durability.
type Figure3 struct {
	// Goal is the design goal of the panel.
	Goal Goal
	// Device names the durability scenario.
	Device string
	// RateKbps is the x axis.
	RateKbps []float64
	// RequiredBufferKB is the "minimal required buffer" curve; NaN where the
	// goal is infeasible.
	RequiredBufferKB []float64
	// EnergyBufferKB is the "energy-efficiency buffer" curve; NaN where the
	// energy goal alone is unreachable.
	EnergyBufferKB []float64
	// Dominant labels the constraint dictating the buffer at each rate
	// ("C", "E", "Lsp", "Lpb", or "X" when infeasible).
	Dominant []string
	// Regimes is the segmented dominance annotation shown on top of the
	// paper's panels.
	Regimes []Regime
	// FeasibilityLimit is the lowest sampled rate at which the goal becomes
	// infeasible; zero when the goal is feasible over the whole range.
	FeasibilityLimit BitRate
}

// GenerateFigure3 sweeps the paper's 32-4096 kbps range for the given goal
// and device at the given number of log-spaced points. The per-rate
// dimensioning fans out over one worker per CPU; use GenerateFigure3Context
// to bound the pool or cancel the generation.
func GenerateFigure3(dev Device, goal Goal, points int) (*Figure3, error) {
	return GenerateFigure3Context(context.Background(), 0, dev, goal, points)
}

// GenerateFigure3Context is GenerateFigure3 with explicit cancellation and
// worker bound (zero means one worker per CPU, one forces the sequential
// path). The figure is identical at any worker count.
func GenerateFigure3Context(ctx context.Context, workers int, dev Device, goal Goal, points int) (*Figure3, error) {
	sweep, err := ExploreContext(ctx, workers, dev, goal, 32*units.Kbps, 4096*units.Kbps, points)
	if err != nil {
		return nil, err
	}
	fig := &Figure3{Goal: goal, Device: dev.Name, Regimes: sweep.Regimes()}
	for _, p := range sweep.Points {
		fig.RateKbps = append(fig.RateKbps, p.Rate.Kilobits())
		d := p.Dimensioning
		if d.Feasible {
			fig.RequiredBufferKB = append(fig.RequiredBufferKB, d.Buffer.KiBytes())
			fig.Dominant = append(fig.Dominant, d.Dominant.String())
		} else {
			fig.RequiredBufferKB = append(fig.RequiredBufferKB, math.NaN())
			fig.Dominant = append(fig.Dominant, "X")
		}
		if d.Requirements[core.ConstraintEnergy].Feasible {
			fig.EnergyBufferKB = append(fig.EnergyBufferKB, d.EnergyBuffer.KiBytes())
		} else {
			fig.EnergyBufferKB = append(fig.EnergyBufferKB, math.NaN())
		}
	}
	if limit, ok := sweep.FeasibilityLimit(); ok {
		fig.FeasibilityLimit = limit
	}
	return fig, nil
}

// Series converts the figure into named report series sharing the rate axis.
func (f *Figure3) Series() (required, energyOnly report.Series) {
	required = report.Series{Name: "minimal required buffer [kB]", X: f.RateKbps, Y: f.RequiredBufferKB}
	energyOnly = report.Series{Name: "energy-efficiency buffer [kB]", X: f.RateKbps, Y: f.EnergyBufferKB}
	return
}

// Render writes the panel as a log-log ASCII plot with the regime annotation.
func (f *Figure3) Render(w io.Writer) error {
	required, energyOnly := f.Series()
	title := fmt.Sprintf("Figure 3 panel: buffer vs streaming rate, goal %v, %s", f.Goal, f.Device)
	if err := report.Plot(w, report.PlotConfig{
		Title:  title,
		XScale: report.Log10, YScale: report.Log10,
		XLabel: "streaming rate [kbps]", YLabel: "buffer [kB]",
	}, required, energyOnly); err != nil {
		return wrapErr(err)
	}
	fmt.Fprint(w, "Dominance regimes: ")
	for i, r := range f.Regimes {
		if i > 0 {
			fmt.Fprint(w, " | ")
		}
		fmt.Fprintf(w, "%s (%.0f-%.0f kbps)", r.Label(), r.MinRate.Kilobits(), r.MaxRate.Kilobits())
	}
	fmt.Fprintln(w)
	if f.FeasibilityLimit.Positive() {
		fmt.Fprintf(w, "Goal infeasible from about %.0f kbps upward\n", f.FeasibilityLimit.Kilobits())
	} else {
		fmt.Fprintln(w, "Goal feasible over the whole studied range")
	}
	fmt.Fprintln(w)
	return wrapErr(report.SeriesCSV(w, "rate [kbps]", required, energyOnly))
}

// PaperFigure3a generates the Fig. 3a panel: goal (80 %, 88 %, 7 years) on the
// baseline device (Dpb = 100, Dsp = 1e8).
func PaperFigure3a(points int) (*Figure3, error) {
	return GenerateFigure3(DefaultDevice(), PaperGoalA(), points)
}

// PaperFigure3b generates the Fig. 3b panel: goal (70 %, 88 %, 7 years) on the
// baseline device.
func PaperFigure3b(points int) (*Figure3, error) {
	return GenerateFigure3(DefaultDevice(), PaperGoalB(), points)
}

// PaperFigure3c generates the Fig. 3c panel: goal (70 %, 88 %, 7 years) on the
// improved-durability device (Dpb = 200, Dsp = 1e12).
func PaperFigure3c(points int) (*Figure3, error) {
	return GenerateFigure3(ImprovedDevice(), PaperGoalB(), points)
}

// PaperFigure3dC85 generates the Section IV-C textual variant: goal
// (80 %, 85 %, 7 years) on the baseline device.
func PaperFigure3dC85(points int) (*Figure3, error) {
	return GenerateFigure3(DefaultDevice(), PaperGoalC85(), points)
}

// PaperBreakEvenRates returns the rates used for the break-even comparison.
func PaperBreakEvenRates() []BitRate {
	return []BitRate{
		32 * units.Kbps, 64 * units.Kbps, 128 * units.Kbps, 256 * units.Kbps,
		512 * units.Kbps, 1024 * units.Kbps, 2048 * units.Kbps, 4096 * units.Kbps,
	}
}

// AblationResult compares the full model against a variant with one effect
// switched off, at one operating point.
type AblationResult struct {
	// Name identifies the ablation.
	Name string
	// Buffer is the evaluated operating point.
	Buffer Size
	// Rate is the streaming rate.
	Rate BitRate
	// Full and Ablated are the per-bit energies (or utilisations, see Unit)
	// with and without the effect.
	Full    float64
	Ablated float64
	// Unit names the compared quantity.
	Unit string
}

// Ablations quantifies the design choices the paper calls out: the DRAM
// energy contribution, the best-effort share, and the per-subsector
// synchronisation bits. The ablated variants are evaluated concurrently,
// each on a model owned by its worker, in a fixed result order; use
// AblationsContext to bound the pool or cancel the evaluation.
func Ablations(dev Device, rate BitRate, buffer Size) ([]AblationResult, error) {
	return AblationsContext(context.Background(), 0, dev, rate, buffer)
}

// AblationsContext is Ablations with explicit cancellation and worker bound
// (zero means one worker per CPU, one forces the sequential path). The
// results are identical at any worker count.
func AblationsContext(ctx context.Context, workers int, dev Device, rate BitRate, buffer Size) ([]AblationResult, error) {
	full, err := core.New(dev, rate)
	if err != nil {
		return nil, wrapErr(err)
	}
	fullPt, err := full.At(buffer)
	if err != nil {
		return nil, wrapErr(err)
	}

	type ablation struct {
		name string
		// build constructs the ablated model variant.
		build func() (*core.Model, error)
		// compare extracts the compared quantity from a point.
		compare func(core.Point) float64
		unit    string
	}
	ablations := []ablation{
		{
			name: "DRAM energy excluded",
			build: func() (*core.Model, error) {
				noDRAM := false
				return core.NewWithOptions(dev, rate, core.Options{IncludeDRAMEnergy: &noDRAM})
			},
			compare: func(pt core.Point) float64 { return pt.EnergyPerBit.NanojoulesPerBit() },
			unit:    "nJ/b",
		},
		{
			name: "best-effort traffic excluded",
			build: func() (*core.Model, error) {
				wl := DefaultWorkload()
				wl.BestEffortFraction = 0
				return core.NewWithOptions(dev, rate, core.Options{Workload: &wl})
			},
			compare: func(pt core.Point) float64 { return pt.EnergyPerBit.NanojoulesPerBit() },
			unit:    "nJ/b",
		},
		{
			name: "synchronisation bits excluded",
			build: func() (*core.Model, error) {
				noSync := dev
				noSync.SyncBitsPerSubsector = 0
				return core.New(noSync, rate)
			},
			compare: func(pt core.Point) float64 { return pt.Utilisation },
			unit:    "utilisation",
		},
	}

	results, err := parallel.Map(ctx, workers, len(ablations), func(_ context.Context, i int) (AblationResult, error) {
		a := ablations[i]
		m, err := a.build()
		if err != nil {
			return AblationResult{}, err
		}
		pt, err := m.At(buffer)
		if err != nil {
			return AblationResult{}, err
		}
		return AblationResult{
			Name: a.name, Buffer: buffer, Rate: rate,
			Full: a.compare(fullPt), Ablated: a.compare(pt),
			Unit: a.unit,
		}, nil
	})
	return results, wrapErr(err)
}

// RenderAblations writes the ablation comparison as a table.
func RenderAblations(w io.Writer, results []AblationResult) error {
	tbl := report.NewTable("Ablations (full model vs effect removed)",
		"Ablation", "Rate [kbps]", "Buffer [kB]", "Full", "Ablated", "Unit")
	for _, r := range results {
		if err := tbl.AddRow(
			r.Name,
			fmt.Sprintf("%.0f", r.Rate.Kilobits()),
			fmt.Sprintf("%.1f", r.Buffer.KiBytes()),
			fmt.Sprintf("%.4g", r.Full),
			fmt.Sprintf("%.4g", r.Ablated),
			r.Unit,
		); err != nil {
			return wrapErr(err)
		}
	}
	return wrapErr(tbl.Render(w))
}
