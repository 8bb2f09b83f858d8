package core

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"memstream/internal/device"
	"memstream/internal/lifetime"
	"memstream/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return diff < tol
	}
	return diff/scale < tol
}

func modelAt(t *testing.T, rate units.BitRate) *Model {
	t.Helper()
	m, err := New(device.DefaultMEMS(), rate)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewRejectsInvalidInput(t *testing.T) {
	if _, err := New(device.DefaultMEMS(), 0); err == nil {
		t.Error("zero rate accepted")
	}
	bad := device.DefaultMEMS()
	bad.Capacity = 0
	if _, err := New(bad, 1024*units.Kbps); err == nil {
		t.Error("invalid device accepted")
	}
	badWl := lifetime.Workload{HoursPerDay: 0}
	if _, err := NewWithOptions(device.DefaultMEMS(), 1024*units.Kbps, Options{Workload: &badWl}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestOptionsOverrides(t *testing.T) {
	wl := lifetime.Workload{HoursPerDay: 4, WriteFraction: 0.1, BestEffortFraction: 0.02}
	dram := device.DefaultDRAM()
	dram.FloorPower = 0
	off := false
	m, err := NewWithOptions(device.DefaultMEMS(), 1024*units.Kbps, Options{
		Workload:          &wl,
		DRAM:              &dram,
		IncludeDRAMEnergy: &off,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Workload != wl {
		t.Errorf("workload override not applied: %+v", m.Workload)
	}
	if m.Energy().BestEffortFraction != 0.02 {
		t.Errorf("best-effort fraction not propagated: %g", m.Energy().BestEffortFraction)
	}
	if m.Energy().IncludeDRAM {
		t.Error("IncludeDRAMEnergy override not applied")
	}
	pt, err := m.At(20 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pt.EnergyBreakdown.DRAM != 0 {
		t.Errorf("DRAM energy charged despite ablation: %v", pt.EnergyBreakdown.DRAM)
	}
}

func TestAtEvaluatesEverything(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	pt, err := m.At(20 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Buffer != 20*units.KiB {
		t.Errorf("Buffer = %v", pt.Buffer)
	}
	if got := pt.EnergyPerBit.NanojoulesPerBit(); got < 10 || got > 60 {
		t.Errorf("EnergyPerBit = %g nJ/b, want 10-60", got)
	}
	if !almostEqual(pt.EnergyPerBit.JoulesPerBit(), pt.EnergyBreakdown.Total().JoulesPerBit(), 1e-12) {
		t.Error("EnergyPerBit does not equal the breakdown total")
	}
	if pt.EnergySaving < 0.5 || pt.EnergySaving > 1 {
		t.Errorf("EnergySaving = %g", pt.EnergySaving)
	}
	if pt.Utilisation < 0.85 || pt.Utilisation > 8.0/9.0 {
		t.Errorf("Utilisation = %g", pt.Utilisation)
	}
	if got := pt.UserCapacity.GBytes(); got < 100 || got > 107 {
		t.Errorf("UserCapacity = %g GB", got)
	}
	if got := pt.SpringsLifetime.Years(); got < 1.4 || got > 1.7 {
		t.Errorf("SpringsLifetime = %g years, want about 1.52", got)
	}
	if got := pt.ProbesLifetime.Years(); got < 18 || got > 21 {
		t.Errorf("ProbesLifetime = %g years, want about 19.5", got)
	}
	if pt.Lifetime != pt.SpringsLifetime || pt.LimitedBy != lifetime.LimitSprings {
		t.Errorf("lifetime should be springs-limited at 20 KiB: %+v", pt)
	}
	if _, err := m.At(0); err == nil {
		t.Error("At(0) succeeded")
	}
}

func TestBreakEvenAndMinimumBuffer(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	be, err := m.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	// rs * 17.4 ms at 1024 kbps is about 2.2 kB.
	if got := be.Bytes(); got < 2000 || got > 2500 {
		t.Errorf("break-even = %g bytes, want about 2230", got)
	}
	if !m.MinimumBuffer().Positive() {
		t.Error("MinimumBuffer not positive")
	}
	if m.MinimumBuffer() >= be {
		t.Errorf("minimum cycle buffer %v should be below the break-even buffer %v",
			m.MinimumBuffer(), be)
	}
}

func TestConstraintStrings(t *testing.T) {
	if ConstraintEnergy.String() != "E" || ConstraintCapacity.String() != "C" ||
		ConstraintSprings.String() != "Lsp" || ConstraintProbes.String() != "Lpb" {
		t.Error("constraint labels do not match the paper notation")
	}
	if Constraint(17).String() == "" || !strings.Contains(Constraint(17).String(), "17") {
		t.Error("unknown constraint label")
	}
	for _, c := range []Constraint{ConstraintEnergy, ConstraintCapacity, ConstraintSprings, ConstraintProbes} {
		if c.Description() == "" || c.Description() == c.String() {
			t.Errorf("constraint %v lacks a description", c)
		}
	}
	if Constraint(17).Description() != Constraint(17).String() {
		t.Error("unknown constraint description should fall back to the label")
	}
}

func TestGoalValidateAndString(t *testing.T) {
	good := PaperGoalA()
	if err := good.Validate(); err != nil {
		t.Errorf("paper goal A invalid: %v", err)
	}
	if s := good.String(); !strings.Contains(s, "80%") || !strings.Contains(s, "88%") || !strings.Contains(s, "7 y") {
		t.Errorf("goal string = %q", s)
	}
	bad := []Goal{
		{EnergySaving: -0.1, CapacityUtilisation: 0.5, Lifetime: units.Year},
		{EnergySaving: 1.0, CapacityUtilisation: 0.5, Lifetime: units.Year},
		{EnergySaving: 0.5, CapacityUtilisation: 1.0, Lifetime: units.Year},
		{EnergySaving: 0.5, CapacityUtilisation: 0.5, Lifetime: -units.Year},
		{EnergySaving: math.NaN(), CapacityUtilisation: 0.5, Lifetime: units.Year},
		{EnergySaving: 0.5, CapacityUtilisation: math.NaN(), Lifetime: units.Year},
		{EnergySaving: 0.5, CapacityUtilisation: 0.5, Lifetime: units.Duration(math.NaN())},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("goal %d validated unexpectedly: %+v", i, g)
		}
	}
}

func TestPaperGoals(t *testing.T) {
	a, b, c := PaperGoalA(), PaperGoalB(), PaperGoalC85()
	if a.EnergySaving != 0.80 || a.CapacityUtilisation != 0.88 || a.Lifetime != 7*units.Year {
		t.Errorf("goal A = %+v", a)
	}
	if b.EnergySaving != 0.70 || b.CapacityUtilisation != 0.88 {
		t.Errorf("goal B = %+v", b)
	}
	if c.CapacityUtilisation != 0.85 {
		t.Errorf("goal C85 = %+v", c)
	}
}

func TestBufferForEnergySaving(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	req, err := m.BufferForEnergySaving(0.70)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Feasible {
		t.Fatalf("70%% saving at 1024 kbps should be feasible: %s", req.Reason)
	}
	// Round trip: the returned buffer achieves the target, a 10% smaller one
	// does not (minimality).
	s, err := m.Energy().Saving(req.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.70-1e-6 {
		t.Errorf("saving at returned buffer = %g, want >= 0.70", s)
	}
	sSmaller, err := m.Energy().Saving(req.Buffer.Scale(0.9))
	if err == nil && sSmaller >= 0.70 {
		t.Errorf("returned buffer is not minimal: 0.9x also achieves %g", sSmaller)
	}
	// Out-of-range targets are rejected.
	if _, err := m.BufferForEnergySaving(1.0); err == nil {
		t.Error("target 1.0 accepted")
	}
	if _, err := m.BufferForEnergySaving(-0.1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := m.BufferForEnergySaving(math.NaN()); err == nil {
		t.Error("NaN target accepted")
	}
}

// Property: on the Table I device, with DRAM energy on and off, a feasible
// energy requirement reaches its target and is minimal to the 1e-9 relative
// tolerance of its threshold search (a buffer 2e-9 smaller misses the target
// or closes no cycle), and an infeasible one explains itself and no buffer
// up to the search ceiling reaches its target.
func TestBufferForEnergySavingIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	for _, includeDRAM := range []bool{true, false} {
		feasible, infeasible := 0, 0
		for i := 0; i < 150; i++ {
			rate := units.Kbps.Scale(32 * math.Pow(4096.0/32, rng.Float64()))
			target := 0.95 * rng.Float64()
			if i%10 == 0 {
				target = 0
			}
			m, err := NewWithOptions(device.DefaultMEMS(), rate, Options{IncludeDRAMEnergy: &includeDRAM})
			if err != nil {
				t.Fatal(err)
			}
			em := m.Energy()
			maxSaving, _, err := em.MaxSaving()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(target-maxSaving) <= 1e-9 {
				continue
			}
			req, err := m.BufferForEnergySaving(target)
			if err != nil {
				t.Fatalf("DRAM %v, %v, target %g: %v", includeDRAM, rate, target, err)
			}
			if !req.Feasible {
				infeasible++
				if req.Reason == "" {
					t.Errorf("DRAM %v, %v, target %g: infeasible without a reason", includeDRAM, rate, target)
				}
				lo, ceiling := m.MinimumBuffer(), m.Device.MediaRate().Times(10*units.Second)
				for k := 0; k <= 200; k++ {
					b := lo.Scale(math.Pow(ceiling.DivideBy(lo), float64(k)/200))
					if s, err := em.Saving(b); err == nil && s >= target {
						t.Errorf("DRAM %v, %v, target %g: infeasible, but %v saves %g", includeDRAM, rate, target, b, s)
						break
					}
				}
				continue
			}
			feasible++
			if s, err := em.Saving(req.Buffer); err != nil || s < target {
				t.Errorf("DRAM %v, %v, target %g: B_E = %v saves %g (err %v)", includeDRAM, rate, target, req.Buffer, s, err)
			}
			smaller := req.Buffer.Scale(1 - 2e-9)
			if s, err := em.Saving(smaller); err == nil && s >= target {
				t.Errorf("DRAM %v, %v, target %g: B_E = %v is not minimal: %v saves %g", includeDRAM, rate, target, req.Buffer, smaller, s)
			}
		}
		if feasible == 0 || infeasible == 0 {
			t.Errorf("DRAM %v: %d feasible and %d infeasible requirements, want both kinds", includeDRAM, feasible, infeasible)
		}
	}
}

func TestBufferForEnergySavingInfeasibleAtHighRates(t *testing.T) {
	// Fig. 3a: the 80 % target becomes unreachable slightly above 1000 kbps.
	m := modelAt(t, 2048*units.Kbps)
	req, err := m.BufferForEnergySaving(0.80)
	if err != nil {
		t.Fatal(err)
	}
	if req.Feasible {
		t.Errorf("80%% saving at 2048 kbps should be infeasible, got buffer %v", req.Buffer)
	}
	if req.Reason == "" {
		t.Error("infeasible requirement lacks a reason")
	}
	// At a low rate it is comfortably feasible.
	low := modelAt(t, 256*units.Kbps)
	reqLow, err := low.BufferForEnergySaving(0.80)
	if err != nil {
		t.Fatal(err)
	}
	if !reqLow.Feasible {
		t.Errorf("80%% saving at 256 kbps should be feasible: %s", reqLow.Reason)
	}
}

func TestBufferForUtilisation(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	req, err := m.BufferForUtilisation(0.88)
	if err != nil {
		t.Fatal(err)
	}
	if !req.Feasible {
		t.Fatalf("88%% utilisation should be feasible: %s", req.Reason)
	}
	// The 88% requirement is rate-independent and sits at a few tens of KiB.
	if got := req.Buffer.KiBytes(); got < 20 || got > 50 {
		t.Errorf("buffer for 88%% utilisation = %g KiB, want 20-50", got)
	}
	if got := m.Layout.Utilisation(req.Buffer); got < 0.88 {
		t.Errorf("utilisation at returned buffer = %g", got)
	}
	reqHigh, err := m.BufferForUtilisation(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if reqHigh.Feasible {
		t.Error("95% utilisation should be infeasible (ceiling 8/9)")
	}
	if _, err := m.BufferForUtilisation(1.0); err == nil {
		t.Error("target 1.0 accepted")
	}
	if _, err := m.BufferForUtilisation(math.NaN()); err == nil {
		t.Error("NaN target accepted")
	}
}

func TestBufferForLifetimes(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	reqS, err := m.BufferForSpringsLifetime(7 * units.Year)
	if err != nil {
		t.Fatal(err)
	}
	if !reqS.Feasible || reqS.Buffer.KiBytes() < 85 || reqS.Buffer.KiBytes() > 95 {
		t.Errorf("springs requirement = %+v, want about 92 KiB", reqS)
	}
	reqP, err := m.BufferForProbesLifetime(7 * units.Year)
	if err != nil {
		t.Fatal(err)
	}
	if !reqP.Feasible {
		t.Errorf("probes requirement at 1024 kbps should be feasible: %s", reqP.Reason)
	}
	if reqP.Buffer >= reqS.Buffer {
		t.Errorf("probes requirement (%v) should be far below springs (%v) at 1024 kbps",
			reqP.Buffer, reqS.Buffer)
	}
	// At 4096 kbps the probes ceiling falls below 7 years.
	high := modelAt(t, 4096*units.Kbps)
	reqPHigh, err := high.BufferForProbesLifetime(7 * units.Year)
	if err != nil {
		t.Fatal(err)
	}
	if reqPHigh.Feasible {
		t.Error("probes 7-year requirement at 4096 kbps should be infeasible")
	}
	// A NaN or negative target is rejected up front, as the energy and
	// capacity targets are; zero asks for nothing and needs no buffer.
	for name, buffer := range map[string]func(units.Duration) (Requirement, error){
		"springs": m.BufferForSpringsLifetime, "probes": m.BufferForProbesLifetime,
	} {
		for _, target := range []units.Duration{units.Duration(math.NaN()), -1 * units.Year} {
			if req, err := buffer(target); err == nil || !strings.Contains(err.Error(), "must be non-negative") {
				t.Errorf("%s target %v: %+v, %v; want the non-negative target error", name, target, req, err)
			}
		}
		if req, err := buffer(0); err != nil || !req.Feasible || req.Buffer != 0 {
			t.Errorf("%s target 0: %+v, %v; want a feasible zero buffer", name, req, err)
		}
	}
}

func TestDimensionGoalAMatchesFigure3a(t *testing.T) {
	// Fig. 3a, goal (E=80%, C=88%, L=7), Dpb=100, Dsp=1e8:
	//  - capacity dominates at low rates,
	//  - energy dominates in the middle of the range with a steeply growing
	//    buffer,
	//  - the goal is infeasible at high rates.
	goal := PaperGoalA()

	low := modelAt(t, 64*units.Kbps)
	dLow, err := low.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if !dLow.Feasible || dLow.Dominant != ConstraintCapacity {
		t.Errorf("at 64 kbps: feasible=%v dominant=%v, want feasible, C", dLow.Feasible, dLow.Dominant)
	}
	if got := dLow.Buffer.KiBytes(); got < 20 || got > 50 {
		t.Errorf("capacity-dominated buffer = %g KiB, want 20-50", got)
	}

	mid := modelAt(t, 512*units.Kbps)
	dMid, err := mid.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if !dMid.Feasible || dMid.Dominant != ConstraintEnergy {
		t.Errorf("at 512 kbps: feasible=%v dominant=%v, want feasible, E", dMid.Feasible, dMid.Dominant)
	}
	if dMid.Buffer <= dLow.Buffer {
		t.Errorf("energy-dominated buffer (%v) should exceed the capacity plateau (%v)",
			dMid.Buffer, dLow.Buffer)
	}

	high := modelAt(t, 2048*units.Kbps)
	dHigh, err := high.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if dHigh.Feasible {
		t.Error("goal A at 2048 kbps should be infeasible")
	}
	infeasible := dHigh.Infeasible()
	if len(infeasible) != 1 || infeasible[0] != ConstraintEnergy {
		t.Errorf("infeasible constraints = %v, want [E]", infeasible)
	}
}

func TestDimensionGoalBMatchesFigure3b(t *testing.T) {
	// Fig. 3b, goal (70%, 88%, 7): energy never dominates; capacity and then
	// springs lifetime dictate the buffer; the required buffer exceeds the
	// energy-efficiency buffer by 1-2 orders of magnitude.
	goal := PaperGoalB()
	for _, kbps := range []float64{64, 256, 1024, 2048} {
		m := modelAt(t, units.BitRate(kbps)*units.Kbps)
		d, err := m.Dimension(goal)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Feasible {
			t.Errorf("goal B at %g kbps should be feasible", kbps)
			continue
		}
		if d.Dominant == ConstraintEnergy {
			t.Errorf("energy dominates goal B at %g kbps, the paper says it never does", kbps)
		}
		if d.EnergyBuffer.Positive() {
			ratio := d.Buffer.DivideBy(d.EnergyBuffer)
			if ratio < 2 {
				t.Errorf("required/energy buffer ratio at %g kbps = %g, want well above 1", kbps, ratio)
			}
		}
	}
	// Low rates: capacity dominates; higher rates: springs dominate.
	dLow, _ := modelAt(t, 64*units.Kbps).Dimension(goal)
	if dLow.Dominant != ConstraintCapacity {
		t.Errorf("goal B at 64 kbps dominated by %v, want C", dLow.Dominant)
	}
	dHigh, _ := modelAt(t, 1024*units.Kbps).Dimension(goal)
	if dHigh.Dominant != ConstraintSprings {
		t.Errorf("goal B at 1024 kbps dominated by %v, want Lsp", dHigh.Dominant)
	}
	// The probes limit makes the goal infeasible somewhere in the studied
	// range (the paper puts it around 1500 kbps; our formatting model puts it
	// near 2900 kbps — same order of magnitude).
	dTop, _ := modelAt(t, 4096*units.Kbps).Dimension(goal)
	if dTop.Feasible {
		t.Error("goal B at 4096 kbps should be infeasible (probes)")
	}
	inf := dTop.Infeasible()
	if len(inf) != 1 || inf[0] != ConstraintProbes {
		t.Errorf("goal B infeasible constraints at 4096 kbps = %v, want [Lpb]", inf)
	}
}

func TestDimensionGoalCMatchesFigure3c(t *testing.T) {
	// Fig. 3c: improved durability (200 write cycles, silicon springs at
	// 1e12). Capacity prevails, then energy; springs disappear and probes no
	// longer limit the studied range.
	dev := device.DefaultMEMS().WithDurability(200, 1e12)
	goal := PaperGoalB()
	for _, tc := range []struct {
		kbps float64
		want Constraint
	}{
		{64, ConstraintCapacity},
		{1024, ConstraintCapacity},
		{4096, ConstraintEnergy},
	} {
		m, err := New(dev, units.BitRate(tc.kbps)*units.Kbps)
		if err != nil {
			t.Fatal(err)
		}
		d, err := m.Dimension(goal)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Feasible {
			t.Errorf("fig 3c goal at %g kbps should be feasible", tc.kbps)
			continue
		}
		if d.Dominant != tc.want {
			t.Errorf("fig 3c dominant at %g kbps = %v, want %v", tc.kbps, d.Dominant, tc.want)
		}
		if d.Dominant == ConstraintSprings || d.Dominant == ConstraintProbes {
			t.Errorf("lifetime should not dominate fig 3c at %g kbps", tc.kbps)
		}
	}
}

func TestDimensionGoalC85ShrinksCapacityRange(t *testing.T) {
	// Section IV-C: with C = 85% the capacity-dominated range shrinks and
	// lifetime dominates before energy takes over.
	goalA := PaperGoalA()
	goalC := PaperGoalC85()
	rate := 256 * units.Kbps
	m := modelAt(t, rate)
	dA, err := m.Dimension(goalA)
	if err != nil {
		t.Fatal(err)
	}
	dC, err := m.Dimension(goalC)
	if err != nil {
		t.Fatal(err)
	}
	if dA.Dominant != ConstraintCapacity {
		t.Errorf("goal A at %v dominated by %v, want C", rate, dA.Dominant)
	}
	if dC.Dominant == ConstraintCapacity {
		t.Errorf("goal C85 at %v still dominated by capacity", rate)
	}
	if dC.Buffer >= dA.Buffer {
		t.Errorf("relaxing the capacity target should shrink the buffer: %v vs %v", dC.Buffer, dA.Buffer)
	}
	reqC85 := dC.Requirements[ConstraintCapacity]
	reqC88 := dA.Requirements[ConstraintCapacity]
	if !reqC85.Feasible || !reqC88.Feasible || reqC85.Buffer >= reqC88.Buffer {
		t.Errorf("85%% capacity requirement (%v) should be below 88%% (%v)", reqC85.Buffer, reqC88.Buffer)
	}
}

func TestTenPercentTradeOffShrinksBufferByOrdersOfMagnitude(t *testing.T) {
	// Abstract: "trading off 10% of the optimal energy saving reduces the
	// buffer capacity by up to three orders of magnitude". Near the rate
	// where the 80% goal is barely feasible, the energy buffer for 80% is
	// orders of magnitude larger than for 70%.
	m := modelAt(t, 1000*units.Kbps)
	req80, err := m.BufferForEnergySaving(0.80)
	if err != nil {
		t.Fatal(err)
	}
	req70, err := m.BufferForEnergySaving(0.70)
	if err != nil {
		t.Fatal(err)
	}
	if !req80.Feasible || !req70.Feasible {
		t.Skipf("80%% infeasible exactly at 1000 kbps in this calibration (req80=%+v)", req80)
	}
	ratio := req80.Buffer.DivideBy(req70.Buffer)
	if ratio < 30 {
		t.Errorf("80%%/70%% buffer ratio near the feasibility edge = %g, want orders of magnitude", ratio)
	}
}

func TestDimensionRejectsInvalidGoal(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	if _, err := m.Dimension(Goal{EnergySaving: 2}); err == nil {
		t.Error("invalid goal accepted")
	}
}

func TestDimensionBufferSatisfiesAllRequirements(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	goal := PaperGoalB()
	d, err := m.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatal("goal B at 1024 kbps should be feasible")
	}
	pt, err := m.At(d.Buffer)
	if err != nil {
		t.Fatal(err)
	}
	if pt.EnergySaving < goal.EnergySaving-1e-6 {
		t.Errorf("saving at dimensioned buffer = %g < goal %g", pt.EnergySaving, goal.EnergySaving)
	}
	if pt.Utilisation < goal.CapacityUtilisation-1e-9 {
		t.Errorf("utilisation at dimensioned buffer = %g < goal %g", pt.Utilisation, goal.CapacityUtilisation)
	}
	if pt.Lifetime.Years() < goal.Lifetime.Years()-1e-6 {
		t.Errorf("lifetime at dimensioned buffer = %g < goal %g years", pt.Lifetime.Years(), goal.Lifetime.Years())
	}
}

// Property: for any feasible dimensioning, the overall buffer equals the
// largest per-constraint requirement and satisfies each of them.
func TestQuickDimensionIsMaxOfRequirements(t *testing.T) {
	f := func(rawRate uint16, rawE, rawC uint8) bool {
		rate := units.BitRate(int(rawRate%3000)+64) * units.Kbps
		goal := Goal{
			EnergySaving:        0.3 + float64(rawE%40)/100, // 0.30-0.69
			CapacityUtilisation: 0.3 + float64(rawC%55)/100, // 0.30-0.84
			Lifetime:            5 * units.Year,
		}
		m, err := New(device.DefaultMEMS(), rate)
		if err != nil {
			return false
		}
		d, err := m.Dimension(goal)
		if err != nil {
			return false
		}
		if !d.Feasible {
			// Infeasibility is legitimate (probes at high rates); just check
			// that a reason is recorded.
			for _, r := range d.Requirements {
				if !r.Feasible && r.Reason == "" {
					return false
				}
			}
			return true
		}
		var maxReq units.Size
		for _, r := range d.Requirements {
			if !r.Feasible {
				return false
			}
			if d.Buffer < r.Buffer-1 {
				return false
			}
			if r.Buffer > maxReq {
				maxReq = r.Buffer
			}
		}
		// The dominant constraint is the one with the largest requirement
		// (unless the floor of the refill cycle exceeds every requirement).
		if maxReq >= m.MinimumBuffer() {
			return almostEqual(d.Requirements[d.Dominant].Buffer.Bits(), maxReq.Bits(), 1e-9)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDimensionAllocations pins the heap allocations of the analytical
// layer: a point evaluation and a feasible dimensioning allocate nothing,
// because the saving-curve searches keep the energy model's constants on the
// stack. (An infeasible goal allocates the explanation it returns; the
// memsbench fig3-panel gate counts those exactly.)
func TestDimensionAllocations(t *testing.T) {
	for _, c := range []struct {
		rate units.BitRate
		goal Goal
	}{
		{256 * units.Kbps, PaperGoalA()},
		{1024 * units.Kbps, PaperGoalB()},
		{2048 * units.Kbps, PaperGoalB()},
	} {
		m := modelAt(t, c.rate)
		if got := testing.AllocsPerRun(20, func() { _, _ = m.Dimension(c.goal) }); got != 0 {
			t.Errorf("Dimension(%v) at %v: %v allocs, want 0", c.goal, c.rate, got)
		}
	}
	m := modelAt(t, 1024*units.Kbps)
	if got := testing.AllocsPerRun(20, func() { _, _ = m.At(20 * units.KiB) }); got != 0 {
		t.Errorf("At: %v allocs, want 0", got)
	}
}
