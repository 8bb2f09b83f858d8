package memstream

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuickstartWorkflow(t *testing.T) {
	// The workflow from the package documentation must work end to end.
	dev := DefaultDevice()
	model, err := New(dev, 1024*Kbps)
	if err != nil {
		t.Fatal(err)
	}
	dim, err := model.Dimension(Goal{
		EnergySaving:        0.70,
		CapacityUtilisation: 0.88,
		Lifetime:            7 * Year,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dim.Feasible {
		t.Fatal("the quickstart goal should be feasible at 1024 kbps")
	}
	if dim.Dominant != ConstraintSprings {
		t.Errorf("dominant constraint = %v, want springs at 1024 kbps", dim.Dominant)
	}
	if got := dim.Buffer.KiBytes(); got < 60 || got > 130 {
		t.Errorf("required buffer = %g KiB, want around 92", got)
	}
}

func TestDeviceConstructors(t *testing.T) {
	base := DefaultDevice()
	improved := ImprovedDevice()
	if base.ProbeWriteCycles != 100 || base.SpringDutyCycles != 1e8 {
		t.Errorf("default durability = %g/%g", base.ProbeWriteCycles, base.SpringDutyCycles)
	}
	if improved.ProbeWriteCycles != 200 || improved.SpringDutyCycles != 1e12 {
		t.Errorf("improved durability = %g/%g", improved.ProbeWriteCycles, improved.SpringDutyCycles)
	}
	if err := DefaultDRAM().Validate(); err != nil {
		t.Error(err)
	}
	if err := DefaultDisk().Validate(); err != nil {
		t.Error(err)
	}
	if err := DefaultWorkload().Validate(); err != nil {
		t.Error(err)
	}
}

func TestBreakEvenHelpers(t *testing.T) {
	mems, err := BreakEvenBuffer(DefaultDevice(), 1024*Kbps)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := DiskBreakEvenBuffer(DefaultDisk(), 1024*Kbps)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := disk.DivideBy(mems); ratio < 500 || ratio > 2000 {
		t.Errorf("disk/MEMS break-even ratio = %g, want about three orders of magnitude", ratio)
	}
}

func TestExploreFacade(t *testing.T) {
	sweep, err := Explore(DefaultDevice(), PaperGoalB(), 32*Kbps, 4096*Kbps, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 15 {
		t.Errorf("sweep has %d points", len(sweep.Points))
	}
	if _, ok := sweep.FeasibilityLimit(); !ok {
		t.Error("goal B should hit the probes limit inside the studied range")
	}
	wl := DefaultWorkload()
	wl.WriteFraction = 0 // read-only streaming never wears the probes
	sweepRO, err := ExploreWithOptions(DefaultDevice(), PaperGoalB(), Options{Workload: &wl}, 32*Kbps, 4096*Kbps, 15)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sweepRO.FeasibilityLimit(); ok {
		t.Error("read-only goal B should be feasible over the whole range")
	}
}

func TestSweepBufferFacade(t *testing.T) {
	curve, err := SweepBuffer(DefaultDevice(), 1024*Kbps, 3*KiB, 45*KiB, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) < 15 {
		t.Errorf("curve has only %d points", len(curve.Points))
	}
}

func TestSimulateFacade(t *testing.T) {
	cfg := DefaultSimConfig(1024*Kbps, 45*KiB)
	cfg.Duration = 2 * 60 * Second
	stats, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RefillCycles == 0 || stats.Underruns != 0 {
		t.Errorf("simulation unhealthy: %d cycles, %d underruns", stats.RefillCycles, stats.Underruns)
	}
	if stats.BestEffortRequests == 0 {
		t.Error("default simulation should include best-effort traffic")
	}
}

func TestStreamConstructors(t *testing.T) {
	if err := CBRSpec(1024 * Kbps).Validate(); err != nil {
		t.Error(err)
	}
	if err := VBRSpec(1024*Kbps, 3).Validate(); err != nil {
		t.Error(err)
	}
	if err := NewBestEffortProcess(0.05, DefaultDevice().MediaRate(), 3).Validate(); err != nil {
		t.Error(err)
	}
	if DefaultCalendar().SecondsPerYear() <= 0 {
		t.Error("default calendar has no streaming time")
	}
}

func TestRenderTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTableI(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Active probes", "1024", "120", "316", "Stream bit rate", "32 - 4096"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
	if got := strings.Count(out, "\n"); got < 20 {
		t.Errorf("Table I output has only %d lines", got)
	}
}

func TestBreakEvenTableMatchesPaperRange(t *testing.T) {
	rows, err := BreakEvenTable(DefaultDevice(), DefaultDisk(), PaperBreakEvenRates())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PaperBreakEvenRates()) {
		t.Fatalf("got %d rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Paper: MEMS 0.07-8.87 kB, disk 0.08-9.29 MB across 32-4096 kbps.
	if got := first.MEMS.Bytes() / 1000; got < 0.05 || got > 0.09 {
		t.Errorf("MEMS break-even at 32 kbps = %g kB, want about 0.07", got)
	}
	if got := last.MEMS.Bytes() / 1000; got < 8.0 || got > 9.5 {
		t.Errorf("MEMS break-even at 4096 kbps = %g kB, want about 8.9", got)
	}
	if got := first.Disk.Bytes() / 1e6; got < 0.06 || got > 0.1 {
		t.Errorf("disk break-even at 32 kbps = %g MB, want about 0.08", got)
	}
	if got := last.Disk.Bytes() / 1e6; got < 8 || got > 11 {
		t.Errorf("disk break-even at 4096 kbps = %g MB, want about 9.3", got)
	}
	for _, r := range rows {
		if r.Ratio < 500 || r.Ratio > 2000 {
			t.Errorf("disk/MEMS ratio at %v = %g, want about 1000", r.Rate, r.Ratio)
		}
	}
	var buf bytes.Buffer
	if err := RenderBreakEvenTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Disk/MEMS") {
		t.Error("rendered break-even table lacks the ratio column")
	}
	if _, err := BreakEvenTable(DefaultDevice(), DefaultDisk(), nil); err == nil {
		t.Error("empty rate list accepted")
	}
}

func TestGenerateFigure2(t *testing.T) {
	fig, err := GenerateFigure2(DefaultDevice(), 1024*Kbps, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.BufferKB) < 30 {
		t.Fatalf("figure 2 has only %d points", len(fig.BufferKB))
	}
	n := len(fig.BufferKB)
	// Fig. 2a: energy decreases, capacity increases and saturates near 106 GB.
	if fig.EnergyNJPerBit[0] <= fig.EnergyNJPerBit[n-1] {
		t.Error("per-bit energy does not decrease with buffer size")
	}
	// The paper's Fig. 2a axis tops out around 120 nJ/b for the bare Eq. 1;
	// our default curve adds the 5 % best-effort term (about +15 nJ/b).
	if fig.EnergyNJPerBit[0] < 40 || fig.EnergyNJPerBit[0] > 150 {
		t.Errorf("energy at the break-even buffer = %g nJ/b, want 40-150", fig.EnergyNJPerBit[0])
	}
	if fig.UserCapacityGB[n-1] <= fig.UserCapacityGB[0] {
		t.Error("user capacity does not increase with buffer size")
	}
	if fig.UserCapacityGB[n-1] < 100 || fig.UserCapacityGB[n-1] > 107 {
		t.Errorf("user capacity at 20x break-even = %g GB, want 100-107", fig.UserCapacityGB[n-1])
	}
	// Fig. 2b: springs grow linearly to a few years; probes saturate near 20.
	if fig.SpringsYears[n-1] < 2.5 || fig.SpringsYears[n-1] > 4.5 {
		t.Errorf("springs lifetime at ~45 kB = %g years, want about 3.4", fig.SpringsYears[n-1])
	}
	if fig.ProbesYears[n-1] < 17 || fig.ProbesYears[n-1] > 22 {
		t.Errorf("probes lifetime at ~45 kB = %g years, want about 19.5", fig.ProbesYears[n-1])
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2a") || !strings.Contains(buf.String(), "Figure 2b") {
		t.Error("rendered figure 2 lacks panel titles")
	}
	if _, err := GenerateFigure2(DefaultDevice(), 1024*Kbps, 1); err == nil {
		t.Error("single-point figure accepted")
	}
}

func TestPaperFigure3Panels(t *testing.T) {
	const points = 21
	a, err := PaperFigure3a(points)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PaperFigure3b(points)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PaperFigure3c(points)
	if err != nil {
		t.Fatal(err)
	}
	d, err := PaperFigure3dC85(points)
	if err != nil {
		t.Fatal(err)
	}

	// Panel a: infeasible region exists; regimes start with C and include E.
	if !a.FeasibilityLimit.Positive() {
		t.Error("figure 3a should have an infeasible region")
	}
	if a.Regimes[0].Label() != "C" {
		t.Errorf("figure 3a first regime = %s, want C", a.Regimes[0].Label())
	}
	if last := a.Regimes[len(a.Regimes)-1]; last.Label() != "X" {
		t.Errorf("figure 3a last regime = %s, want X", last.Label())
	}

	// Panel b: springs dominate somewhere; the required buffer exceeds the
	// energy buffer by at least an order of magnitude somewhere.
	sawSprings := false
	for _, r := range b.Regimes {
		if r.Label() == "Lsp" {
			sawSprings = true
		}
		if r.Label() == "E" {
			t.Error("energy dominates figure 3b, the paper says it never does")
		}
	}
	if !sawSprings {
		t.Error("springs regime missing from figure 3b")
	}
	maxRatio := 0.0
	for i := range b.RateKbps {
		req, en := b.RequiredBufferKB[i], b.EnergyBufferKB[i]
		if !math.IsNaN(req) && !math.IsNaN(en) && en > 0 {
			if ratio := req / en; ratio > maxRatio {
				maxRatio = ratio
			}
		}
	}
	if maxRatio < 10 {
		t.Errorf("figure 3b required/energy buffer ratio peaks at %g, want >= 10", maxRatio)
	}

	// Panel c: feasible everywhere, capacity then energy dominate.
	if c.FeasibilityLimit.Positive() {
		t.Error("figure 3c should be feasible over the whole range")
	}
	if c.Regimes[0].Label() != "C" || c.Regimes[len(c.Regimes)-1].Label() != "E" {
		t.Errorf("figure 3c regimes = %v, want C ... E", regimeLabels(c.Regimes))
	}

	// Panel d (C = 85%): the capacity-dominated range shrinks compared to a.
	if capRange(a) <= capRange(d) {
		t.Errorf("relaxing C to 85%% should shrink the capacity-dominated range: %d vs %d points",
			capRange(a), capRange(d))
	}

	// Rendering produces plots and CSV for every panel.
	for name, fig := range map[string]*Figure3{"3a": a, "3b": b, "3c": c, "3d": d} {
		var buf bytes.Buffer
		if err := fig.Render(&buf); err != nil {
			t.Errorf("render %s: %v", name, err)
			continue
		}
		out := buf.String()
		if !strings.Contains(out, "Dominance regimes") || !strings.Contains(out, "rate [kbps]") {
			t.Errorf("rendered %s lacks annotation or CSV", name)
		}
	}
}

func regimeLabels(regimes []Regime) []string {
	var out []string
	for _, r := range regimes {
		out = append(out, r.Label())
	}
	return out
}

// capRange counts sampled rates dominated by the capacity constraint.
func capRange(f *Figure3) int {
	n := 0
	for _, d := range f.Dominant {
		if d == "C" {
			n++
		}
	}
	return n
}

func TestAblations(t *testing.T) {
	results, err := Ablations(DefaultDevice(), 1024*Kbps, 20*KiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d ablations, want 3", len(results))
	}
	byName := map[string]AblationResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	dram := byName["DRAM energy excluded"]
	if dram.Ablated >= dram.Full {
		t.Error("removing DRAM energy should lower the per-bit energy")
	}
	if (dram.Full-dram.Ablated)/dram.Full > 0.05 {
		t.Errorf("DRAM share = %.1f%%, the paper says it is negligible",
			100*(dram.Full-dram.Ablated)/dram.Full)
	}
	be := byName["best-effort traffic excluded"]
	if be.Ablated >= be.Full {
		t.Error("removing best-effort traffic should lower the per-bit energy")
	}
	sync := byName["synchronisation bits excluded"]
	if sync.Ablated <= sync.Full {
		t.Error("removing sync bits should raise the capacity utilisation")
	}
	var buf bytes.Buffer
	if err := RenderAblations(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Ablations") {
		t.Error("rendered ablation table lacks its title")
	}
}

func TestTableIStudyRoundTrip(t *testing.T) {
	s := TableIStudy()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.MEMS().ActiveProbes != DefaultDevice().ActiveProbes {
		t.Error("Table I study does not match the default device")
	}
}
