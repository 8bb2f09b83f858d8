package explore

import (
	"context"
	"math"
	"reflect"
	"testing"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/units"
)

func paperConfig(goal core.Goal) Config {
	return Config{Device: device.DefaultMEMS(), Goal: goal}
}

func runSweep(t *testing.T, goal core.Goal, n int) *Sweep {
	t.Helper()
	rates, err := LogSpace(32*units.Kbps, 4096*units.Kbps, n)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := Run(paperConfig(goal), rates)
	if err != nil {
		t.Fatal(err)
	}
	return sweep
}

func TestLogSpace(t *testing.T) {
	rates, err := LogSpace(32*units.Kbps, 4096*units.Kbps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 8 {
		t.Fatalf("got %d rates", len(rates))
	}
	if math.Abs(rates[0].Kilobits()-32) > 1e-9 || math.Abs(rates[7].Kilobits()-4096) > 1e-6 {
		t.Errorf("endpoints = %v, %v", rates[0], rates[7])
	}
	// Log spacing: constant ratio between consecutive rates.
	ratio := rates[1].BitsPerSecond() / rates[0].BitsPerSecond()
	for i := 1; i < len(rates)-1; i++ {
		r := rates[i+1].BitsPerSecond() / rates[i].BitsPerSecond()
		if math.Abs(r-ratio) > 1e-9 {
			t.Errorf("spacing not logarithmic at %d: %g vs %g", i, r, ratio)
		}
	}
}

func TestLogSpaceErrors(t *testing.T) {
	if _, err := LogSpace(32*units.Kbps, 4096*units.Kbps, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := LogSpace(0, 4096*units.Kbps, 4); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := LogSpace(4096*units.Kbps, 32*units.Kbps, 4); err == nil {
		t.Error("reversed range accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(paperConfig(core.Goal{EnergySaving: 2}), []units.BitRate{1024 * units.Kbps}); err == nil {
		t.Error("invalid goal accepted")
	}
	if _, err := Run(paperConfig(core.PaperGoalA()), nil); err == nil {
		t.Error("empty rate list accepted")
	}
	bad := paperConfig(core.PaperGoalA())
	bad.Device.Capacity = 0
	if _, err := Run(bad, []units.BitRate{1024 * units.Kbps}); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestRunSortsRates(t *testing.T) {
	rates := []units.BitRate{2048 * units.Kbps, 64 * units.Kbps, 512 * units.Kbps}
	sweep, err := Run(paperConfig(core.PaperGoalB()), rates)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i].Rate < sweep.Points[i-1].Rate {
			t.Fatal("sweep points not sorted by rate")
		}
	}
}

func TestSweepGoalARegimes(t *testing.T) {
	// Fig. 3a: the regime sequence over 32-4096 kbps is C, then E, then X
	// (infeasible). Springs/probes never dominate.
	sweep := runSweep(t, core.PaperGoalA(), 25)
	regimes := sweep.Regimes()
	if len(regimes) < 3 {
		t.Fatalf("expected at least 3 regimes, got %d: %+v", len(regimes), regimes)
	}
	var labels []string
	for _, r := range regimes {
		labels = append(labels, r.Label())
	}
	if labels[0] != "C" {
		t.Errorf("first regime = %s, want C (capacity dominates at low rates)", labels[0])
	}
	if labels[len(labels)-1] != "X" {
		t.Errorf("last regime = %s, want X (infeasible at high rates)", labels[len(labels)-1])
	}
	sawEnergy := false
	for _, l := range labels {
		if l == "E" {
			sawEnergy = true
		}
		if l == "Lsp" || l == "Lpb" {
			t.Errorf("lifetime regime %s should not appear in Fig. 3a", l)
		}
	}
	if !sawEnergy {
		t.Errorf("energy regime missing from Fig. 3a sequence: %v", labels)
	}
	// The infeasibility limit sits near 1000 kbps (the paper: "slightly above
	// 1000 kbps"; this calibration: within a factor ~2).
	limit, ok := sweep.FeasibilityLimit()
	if !ok {
		t.Fatal("no feasibility limit found for goal A")
	}
	if limit.Kilobits() < 700 || limit.Kilobits() > 2200 {
		t.Errorf("goal A feasibility limit = %v, want on the order of 1000 kbps", limit)
	}
}

func TestSweepGoalBRegimes(t *testing.T) {
	// Fig. 3b: capacity, then springs lifetime dominate; energy never does;
	// the probes lifetime cuts the range short at high rates.
	sweep := runSweep(t, core.PaperGoalB(), 25)
	regimes := sweep.Regimes()
	var labels []string
	for _, r := range regimes {
		labels = append(labels, r.Label())
	}
	if labels[0] != "C" {
		t.Errorf("first regime = %s, want C", labels[0])
	}
	sawSprings := false
	for _, l := range labels {
		if l == "E" {
			t.Errorf("energy dominates goal B somewhere (%v), the paper says it never does", labels)
		}
		if l == "Lsp" {
			sawSprings = true
		}
	}
	if !sawSprings {
		t.Errorf("springs regime missing from goal B sequence: %v", labels)
	}
	if labels[len(labels)-1] != "X" {
		t.Errorf("goal B should become infeasible (probes) at the top of the range: %v", labels)
	}
	limit, ok := sweep.FeasibilityLimit()
	if !ok {
		t.Fatal("no feasibility limit for goal B")
	}
	if limit.Kilobits() < 1200 || limit.Kilobits() > 4096 {
		t.Errorf("goal B probes limit = %v, want within the studied range (paper: ~1500 kbps)", limit)
	}
	// Goal B stays feasible strictly longer than goal A.
	sweepA := runSweep(t, core.PaperGoalA(), 25)
	limitA, _ := sweepA.FeasibilityLimit()
	if limit <= limitA {
		t.Errorf("goal B limit (%v) should exceed goal A limit (%v)", limit, limitA)
	}
}

func TestSweepGoalCRegimes(t *testing.T) {
	// Fig. 3c: with improved durability, capacity prevails followed by
	// energy; no lifetime regime and no infeasible region.
	cfg := Config{Device: device.DefaultMEMS().WithDurability(200, 1e12), Goal: core.PaperGoalB()}
	rates, err := LogSpace(32*units.Kbps, 4096*units.Kbps, 25)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := Run(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	if _, infeasible := sweep.FeasibilityLimit(); infeasible {
		t.Error("Fig. 3c configuration should be feasible over the whole range")
	}
	regimes := sweep.Regimes()
	var labels []string
	for _, r := range regimes {
		labels = append(labels, r.Label())
	}
	if labels[0] != "C" || labels[len(labels)-1] != "E" {
		t.Errorf("Fig. 3c regimes = %v, want C ... E", labels)
	}
	for _, l := range labels {
		if l == "Lsp" || l == "Lpb" || l == "X" {
			t.Errorf("unexpected regime %s in Fig. 3c: %v", l, labels)
		}
	}
}

func TestDominanceShare(t *testing.T) {
	// The headline claim: capacity and lifetime dictate the buffer most of
	// the time for the relaxed-energy goal.
	sweep := runSweep(t, core.PaperGoalB(), 40)
	share := sweep.DominanceShare()
	nonEnergy := share[core.ConstraintCapacity] + share[core.ConstraintSprings] + share[core.ConstraintProbes]
	if nonEnergy < 0.9 {
		t.Errorf("capacity+lifetime dominance share = %g, want > 0.9", nonEnergy)
	}
	total := nonEnergy + share[core.ConstraintEnergy]
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("dominance shares sum to %g", total)
	}
}

func TestMaxBufferRatio(t *testing.T) {
	// Fig. 3b: "a difference of 1 to 2 orders of magnitude between the
	// required buffer and the energy-efficiency buffer".
	sweep := runSweep(t, core.PaperGoalB(), 25)
	ratio := sweep.MaxBufferRatio()
	if ratio < 10 || ratio > 1000 {
		t.Errorf("max required/energy buffer ratio = %g, want 1-2 orders of magnitude (10-1000)", ratio)
	}
}

func TestBufferAt(t *testing.T) {
	sweep := runSweep(t, core.PaperGoalB(), 25)
	b, feasible, err := sweep.BufferAt(1024 * units.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("goal B at ~1024 kbps should be feasible")
	}
	// Springs-dominated: about 90 KiB.
	if got := b.KiBytes(); got < 60 || got > 130 {
		t.Errorf("buffer at ~1024 kbps = %g KiB, want near 92", got)
	}
	empty := &Sweep{}
	if _, _, err := empty.BufferAt(1024 * units.Kbps); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestRequiredBufferGrowsWithRate(t *testing.T) {
	sweep := runSweep(t, core.PaperGoalB(), 25)
	prev := units.Size(0)
	for _, p := range sweep.Points {
		if !p.Dimensioning.Feasible {
			break
		}
		if p.Dimensioning.Buffer < prev {
			t.Errorf("required buffer shrank at %v: %v < %v", p.Rate, p.Dimensioning.Buffer, prev)
		}
		prev = p.Dimensioning.Buffer
		if p.BreakEven.Positive() && p.MinimumBuffer.Positive() &&
			p.Dimensioning.Buffer < p.MinimumBuffer {
			t.Errorf("required buffer below the refill minimum at %v", p.Rate)
		}
	}
}

func TestSweepBuffer(t *testing.T) {
	curve, err := SweepBuffer(device.DefaultMEMS(), 1024*units.Kbps, core.Options{},
		2*units.KiB, 45*units.KiB, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) < 30 {
		t.Fatalf("too few points: %d", len(curve.Points))
	}
	// Energy decreases, capacity utilisation increases along the sweep
	// (Fig. 2a trends).
	first, last := curve.Points[0], curve.Points[len(curve.Points)-1]
	if last.EnergyPerBit >= first.EnergyPerBit {
		t.Error("per-bit energy did not decrease along the buffer sweep")
	}
	if last.Utilisation <= first.Utilisation {
		t.Error("utilisation did not increase along the buffer sweep")
	}
	if last.SpringsLifetime <= first.SpringsLifetime {
		t.Error("springs lifetime did not increase along the buffer sweep")
	}
}

func TestSweepBufferErrors(t *testing.T) {
	dev := device.DefaultMEMS()
	if _, err := SweepBuffer(dev, 1024*units.Kbps, core.Options{}, 2*units.KiB, 45*units.KiB, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := SweepBuffer(dev, 1024*units.Kbps, core.Options{}, 45*units.KiB, 2*units.KiB, 10); err == nil {
		t.Error("reversed range accepted")
	}
	if _, err := SweepBuffer(dev, 1024*units.Kbps, core.Options{}, units.Size(1), units.Size(8), 10); err == nil {
		t.Error("range below the refill minimum accepted")
	}
	bad := dev
	bad.Capacity = 0
	if _, err := SweepBuffer(bad, 1024*units.Kbps, core.Options{}, 2*units.KiB, 45*units.KiB, 10); err == nil {
		t.Error("invalid device accepted")
	}
}

func TestRegimeLabel(t *testing.T) {
	r := Regime{Feasible: false}
	if r.Label() != "X" {
		t.Errorf("infeasible regime label = %q", r.Label())
	}
	r = Regime{Feasible: true, Dominant: core.ConstraintSprings}
	if r.Label() != "Lsp" {
		t.Errorf("springs regime label = %q", r.Label())
	}
}

func TestRunWorkersDeterministic(t *testing.T) {
	rates, err := LogSpace(32*units.Kbps, 4096*units.Kbps, 17)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Device: device.DefaultMEMS(), Goal: core.PaperGoalB()}
	seqCfg := base
	seqCfg.Workers = 1
	seq, err := Run(seqCfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3, 8} {
		cfg := base
		cfg.Workers = workers
		par, err := Run(cfg, rates)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: sweep differs from the sequential sweep", workers)
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	rates, err := LogSpace(32*units.Kbps, 4096*units.Kbps, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Config{Device: device.DefaultMEMS(), Goal: core.PaperGoalB(), Workers: 4}, rates); err == nil {
		t.Error("cancelled context accepted")
	}
}
