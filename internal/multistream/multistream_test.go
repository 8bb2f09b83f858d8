package multistream

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/lifetime"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func playbackAndRecord(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), lifetime.DefaultWorkload(),
		[]StreamSpec{
			{Name: "playback", Rate: 1024 * units.Kbps, WriteFraction: 0},
			{Name: "recording", Rate: 512 * units.Kbps, WriteFraction: 1},
		})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func singleStream(t *testing.T, rate units.BitRate, write float64) *System {
	t.Helper()
	s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), lifetime.DefaultWorkload(),
		[]StreamSpec{{Name: "only", Rate: rate, WriteFraction: write}})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return s
}

func TestStreamSpecValidation(t *testing.T) {
	bad := []StreamSpec{
		{Name: "", Rate: units.Kbps},
		{Name: "x", Rate: 0},
		{Name: "x", Rate: units.Kbps, WriteFraction: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated unexpectedly: %+v", i, s)
		}
	}
	if err := (StreamSpec{Name: "ok", Rate: units.Kbps, WriteFraction: 0.4}).Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	dev := device.DefaultMEMS()
	dram := device.DefaultDRAM()
	wl := lifetime.DefaultWorkload()
	if _, err := NewSystem(dev, dram, wl, nil); err == nil {
		t.Error("empty stream set accepted")
	}
	if _, err := NewSystem(dev, dram, wl, []StreamSpec{{Name: "x", Rate: 0}}); err == nil {
		t.Error("invalid stream accepted")
	}
	broken := dev
	broken.ActiveProbes = 0
	if _, err := NewSystem(broken, dram, wl, []StreamSpec{{Name: "x", Rate: units.Kbps}}); err == nil {
		t.Error("invalid device accepted")
	}
	// Aggregate rate above the admissible media share must be rejected.
	if _, err := NewSystem(dev, dram, wl, []StreamSpec{
		{Name: "a", Rate: 60 * units.Mbps},
		{Name: "b", Rate: 60 * units.Mbps},
	}); err == nil {
		t.Error("inadmissible aggregate rate accepted")
	}
}

func TestAggregateAndAdmissible(t *testing.T) {
	s := playbackAndRecord(t)
	if got := s.AggregateRate().Kilobits(); math.Abs(got-1536) > 1e-9 {
		t.Errorf("aggregate rate = %g kbps, want 1536", got)
	}
	if !s.Admissible() {
		t.Error("1.5 Mbps aggregate should be admissible on a 102.4 Mbps device")
	}
}

func TestAtBasicPlan(t *testing.T) {
	s := playbackAndRecord(t)
	plan, err := s.At(units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Buffers) != 2 {
		t.Fatalf("expected 2 buffers, got %d", len(plan.Buffers))
	}
	// Buffers are rate-proportional: 1024 kbps for 1 s and 512 kbps for 1 s.
	if got := plan.Buffers[0].Bits(); math.Abs(got-1.024e6) > 1 {
		t.Errorf("playback buffer = %g bits", got)
	}
	if got := plan.Buffers[1].Bits(); math.Abs(got-5.12e5) > 1 {
		t.Errorf("recording buffer = %g bits", got)
	}
	if plan.TotalBuffer != plan.Buffers[0].Add(plan.Buffers[1]) {
		t.Error("total buffer is not the sum of the per-stream buffers")
	}
	if plan.Standby <= 0 {
		t.Errorf("standby = %v, want positive for a 1 s cycle", plan.Standby)
	}
	if plan.EnergySaving < 0.5 || plan.EnergySaving >= 1 {
		t.Errorf("energy saving = %g", plan.EnergySaving)
	}
	if plan.Utilisation <= 0.8 {
		t.Errorf("utilisation = %g, want above 0.8 for half-megabit buffers", plan.Utilisation)
	}
	if plan.Lifetime != plan.SpringsLifetime && plan.Lifetime != plan.ProbesLifetime {
		t.Error("lifetime is not the minimum of springs and probes")
	}
}

func TestAtRejectsTooShortPeriods(t *testing.T) {
	s := playbackAndRecord(t)
	if _, err := s.At(0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := s.At(units.Millisecond); err == nil {
		t.Error("period below the schedulable minimum accepted")
	}
}

func TestSingleStreamMatchesCoreModel(t *testing.T) {
	// With one stream the shared-device formulation must agree with the
	// single-stream core model: same springs lifetime for the same buffer and
	// a per-bit energy within a few percent.
	rate := 1024 * units.Kbps
	s := singleStream(t, rate, 0.4)
	buffer := 20 * units.KiB
	period := rate.TimeFor(buffer)
	plan, err := s.At(period)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.New(device.DefaultMEMS(), rate)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := model.At(buffer)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(plan.SpringsLifetime.Years()-pt.SpringsLifetime.Years()) / pt.SpringsLifetime.Years(); rel > 0.01 {
		t.Errorf("springs: multistream %g vs core %g years", plan.SpringsLifetime.Years(), pt.SpringsLifetime.Years())
	}
	if rel := math.Abs(plan.ProbesLifetime.Years()-pt.ProbesLifetime.Years()) / pt.ProbesLifetime.Years(); rel > 0.01 {
		t.Errorf("probes: multistream %g vs core %g years", plan.ProbesLifetime.Years(), pt.ProbesLifetime.Years())
	}
	simPerBit := plan.EnergyPerBit.NanojoulesPerBit()
	corePerBit := pt.EnergyPerBit.NanojoulesPerBit()
	if rel := math.Abs(simPerBit-corePerBit) / corePerBit; rel > 0.10 {
		t.Errorf("per-bit energy: multistream %g vs core %g nJ/b", simPerBit, corePerBit)
	}
	if math.Abs(plan.Utilisation-pt.Utilisation) > 1e-9 {
		t.Errorf("utilisation: multistream %g vs core %g", plan.Utilisation, pt.Utilisation)
	}
}

func TestEnergyImprovesWithLongerCycles(t *testing.T) {
	s := playbackAndRecord(t)
	short, err := s.At(100 * units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	long, err := s.At(2 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if long.EnergyPerBit >= short.EnergyPerBit {
		t.Errorf("per-bit energy did not fall with a longer cycle: %v -> %v",
			short.EnergyPerBit, long.EnergyPerBit)
	}
	if long.SpringsLifetime <= short.SpringsLifetime {
		t.Error("springs lifetime did not grow with a longer cycle")
	}
}

func TestInterStreamSeekAccounting(t *testing.T) {
	s := playbackAndRecord(t)
	plain, err := s.At(units.Second)
	if err != nil {
		t.Fatal(err)
	}
	s.CountInterStreamSeeks = true
	conservative, err := s.At(units.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Charging both seeks halves the springs lifetime for two streams.
	want := plain.SpringsLifetime.Years() / 2
	if got := conservative.SpringsLifetime.Years(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("conservative springs lifetime = %g years, want %g", got, want)
	}
}

// TestEditedDeviceIsRead checks that At and Dimension read the exported
// Device as it is when they run: a System whose device is edited after
// NewSystem answers as one built fresh from the edited device, format layout
// included.
func TestEditedDeviceIsRead(t *testing.T) {
	edited := singleStream(t, 1024*units.Kbps, 0.4)
	edited.Device.Capacity = edited.Device.Capacity.Scale(2)
	edited.Device.ECCFraction = 0.5
	fresh, err := NewSystem(edited.Device, edited.Buffer, edited.Workload, edited.Streams)
	if err != nil {
		t.Fatal(err)
	}
	got, err := edited.At(units.Second)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.At(units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("edited System.At = %+v\nfresh System.At = %+v", got, want)
	}
	goal := core.Goal{EnergySaving: 0.70, CapacityUtilisation: 0.6, Lifetime: 7 * units.Year}
	gotDim, err := edited.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	wantDim, err := fresh.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDim, wantDim) {
		t.Errorf("edited System.Dimension = %+v\nfresh System.Dimension = %+v", gotDim, wantDim)
	}
}

func TestDimensionSharedDevice(t *testing.T) {
	s := playbackAndRecord(t)
	goal := core.Goal{EnergySaving: 0.70, CapacityUtilisation: 0.88, Lifetime: 7 * units.Year}
	d, err := s.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatalf("shared playback+recording at 1.5 Mbps aggregate should be feasible: %+v", d.Reasons)
	}
	// The plan at the dimensioned period meets every target.
	if d.Plan.EnergySaving < goal.EnergySaving-1e-6 {
		t.Errorf("saving %g below goal", d.Plan.EnergySaving)
	}
	if d.Plan.Utilisation < goal.CapacityUtilisation-1e-9 {
		t.Errorf("utilisation %g below goal", d.Plan.Utilisation)
	}
	if d.Plan.Lifetime.Years() < goal.Lifetime.Years()-1e-6 {
		t.Errorf("lifetime %g below goal", d.Plan.Lifetime.Years())
	}
	// The springs see the combined wake-up frequency, so they dominate, and
	// the total buffer exceeds what the 1024 kbps stream alone would need.
	if d.Dominant != core.ConstraintSprings {
		t.Errorf("dominant constraint = %v, want springs", d.Dominant)
	}
	single, err := core.New(device.DefaultMEMS(), 1024*units.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	singleDim, err := single.Dimension(goal)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.TotalBuffer <= singleDim.Buffer {
		t.Errorf("shared-device total buffer %v should exceed the single-stream buffer %v",
			d.Plan.TotalBuffer, singleDim.Buffer)
	}
	// The dimensioned period is the largest per-constraint demand.
	maxDemand := 0.0
	for _, p := range d.PeriodFor {
		if !math.IsInf(p.Seconds(), 1) && p.Seconds() > maxDemand {
			maxDemand = p.Seconds()
		}
	}
	if math.Abs(d.Period.Seconds()-maxDemand)/maxDemand > 1e-6 {
		t.Errorf("period %g does not match the binding demand %g", d.Period.Seconds(), maxDemand)
	}
}

func TestDimensionInfeasibleProbes(t *testing.T) {
	// Three simultaneous HD recordings wear the probes out long before seven
	// years no matter how large the buffers are.
	s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), lifetime.DefaultWorkload(),
		[]StreamSpec{
			{Name: "cam1", Rate: 4096 * units.Kbps, WriteFraction: 1},
			{Name: "cam2", Rate: 4096 * units.Kbps, WriteFraction: 1},
			{Name: "cam3", Rate: 4096 * units.Kbps, WriteFraction: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Dimension(core.Goal{EnergySaving: 0.5, CapacityUtilisation: 0.8, Lifetime: 7 * units.Year})
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Fatal("triple HD recording for seven years should be infeasible")
	}
	if _, ok := d.Reasons[core.ConstraintProbes]; !ok {
		t.Errorf("probes infeasibility not reported: %+v", d.Reasons)
	}
}

func TestDimensionRejectsInvalidGoal(t *testing.T) {
	s := playbackAndRecord(t)
	if _, err := s.Dimension(core.Goal{EnergySaving: 2}); err == nil {
		t.Error("invalid goal accepted")
	}
}

func TestDimensionReadOnlyStreams(t *testing.T) {
	// Pure playback never wears the probes; the probes constraint asks for
	// nothing and the springs dominate.
	s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), lifetime.DefaultWorkload(),
		[]StreamSpec{
			{Name: "a", Rate: 512 * units.Kbps, WriteFraction: 0},
			{Name: "b", Rate: 256 * units.Kbps, WriteFraction: 0},
		})
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Dimension(core.Goal{EnergySaving: 0.70, CapacityUtilisation: 0.88, Lifetime: 7 * units.Year})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatalf("read-only workload should be feasible: %+v", d.Reasons)
	}
	if !math.IsInf(d.Plan.ProbesLifetime.Seconds(), 1) {
		t.Errorf("probes lifetime = %v, want unbounded without writes", d.Plan.ProbesLifetime)
	}
	// With no writes the probes never bind; at these low rates the capacity
	// requirement (the slow 256 kbps stream needs a long cycle to reach an
	// 88% sector) outweighs even the springs.
	if d.Dominant == core.ConstraintProbes {
		t.Errorf("dominant = %v, probes cannot dominate a read-only workload", d.Dominant)
	}
	if d.PeriodFor[core.ConstraintCapacity] <= d.PeriodFor[core.ConstraintSprings] {
		t.Errorf("capacity demand %v should exceed the springs demand %v for the slow read-only mix",
			d.PeriodFor[core.ConstraintCapacity], d.PeriodFor[core.ConstraintSprings])
	}
}

// Property: per-stream buffers are proportional to the stream rates and the
// total buffer grows linearly with the period.
func TestQuickBufferProportionality(t *testing.T) {
	s := playbackAndRecord(t)
	f := func(raw uint8) bool {
		period := units.Duration(0.2+float64(raw%40)/10) * units.Second
		plan, err := s.At(period)
		if err != nil {
			return false
		}
		ratio := plan.Buffers[0].DivideBy(plan.Buffers[1])
		if math.Abs(ratio-2) > 1e-9 { // 1024 kbps vs 512 kbps
			return false
		}
		double, err := s.At(period.Scale(2))
		if err != nil {
			return false
		}
		return math.Abs(double.TotalBuffer.DivideBy(plan.TotalBuffer)-2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the springs lifetime grows linearly with the period for any
// admissible stream mix.
func TestQuickSpringsLinearInPeriod(t *testing.T) {
	f := func(rawA, rawB uint8) bool {
		streams := []StreamSpec{
			{Name: "a", Rate: units.BitRate(int(rawA%30)+1) * 64 * units.Kbps, WriteFraction: 0.5},
			{Name: "b", Rate: units.BitRate(int(rawB%30)+1) * 64 * units.Kbps, WriteFraction: 0},
		}
		s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), lifetime.DefaultWorkload(), streams)
		if err != nil {
			return false
		}
		p1, err1 := s.At(units.Second)
		p3, err3 := s.At(3 * units.Second)
		if err1 != nil || err3 != nil {
			return false
		}
		return math.Abs(p3.SpringsLifetime.Years()-3*p1.SpringsLifetime.Years()) < 1e-6*p1.SpringsLifetime.Years()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSingleStreamMatchesSimEngine is the degenerate-case cross-check: a
// single-stream System evaluated at super-cycle period T must agree with a
// discrete-event simulation of the same device streaming through a buffer of
// rate*T. The closed form and the simulator both charge state time at the
// device's state powers and project wear through internal/lifetime's
// Eqs. 5 and 6, so only the structural differences remain — the
// simulator's wake-level margin and the refill overlap — which stay within a
// few percent at these operating points.
func TestSingleStreamMatchesSimEngine(t *testing.T) {
	rate := 1024 * units.Kbps
	wl := lifetime.DefaultWorkload()
	wl.BestEffortFraction = 0 // compare the clean streaming cycle
	s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), wl,
		[]StreamSpec{{Name: "only", Rate: rate, WriteFraction: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	period := units.Duration(1) // 1 s super-cycle = 128 KB buffer
	plan, err := s.At(period)
	if err != nil {
		t.Fatal(err)
	}

	cfg := sim.Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   rate.Times(period),
		Spec:     workload.CBRSpec(rate),
		Duration: 10 * units.Minute,
		Seed:     1,
	}
	stats, err := sim.RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}

	simPerBit := stats.PerBitEnergy().NanojoulesPerBit()
	planPerBit := plan.EnergyPerBit.NanojoulesPerBit()
	if rel := math.Abs(simPerBit-planPerBit) / planPerBit; rel > 0.05 {
		t.Errorf("per-bit energy: sim %.3f vs multistream %.3f nJ/b (rel %.3f)",
			simPerBit, planPerBit, rel)
	}

	cal := workload.PlaybackCalendar{HoursPerDay: wl.HoursPerDay, DaysPerYear: 365}
	simSprings := stats.ProjectedSpringsLifetime(cfg.Device, cal).Years()
	planSprings := plan.SpringsLifetime.Years()
	if rel := math.Abs(simSprings-planSprings) / planSprings; rel > 0.05 {
		t.Errorf("springs lifetime: sim %.3f vs multistream %.3f years (rel %.3f)",
			simSprings, planSprings, rel)
	}
	simProbes := stats.ProjectedProbesLifetime(cfg.Device, cal).Years()
	planProbes := plan.ProbesLifetime.Years()
	if rel := math.Abs(simProbes-planProbes) / planProbes; rel > 0.05 {
		t.Errorf("probes lifetime: sim %.3f vs multistream %.3f years (rel %.3f)",
			simProbes, planProbes, rel)
	}
}

// TestSimulatePlanMatchesAt is the shared-device parity table: for K = 1, 2
// and 4 mixed read/write streams, the multi-stream event-engine simulation of
// a plan must reproduce the closed form's per-cycle energy — compared as
// energy per streamed bit, since the simulated steady-state cycle repeats the
// plan's — within 5 %, mirroring the single-stream TestSingleStreamMatchesSimEngine.
func TestSimulatePlanMatchesAt(t *testing.T) {
	cases := []struct {
		name    string
		streams []StreamSpec
	}{
		{"K=1", []StreamSpec{
			{Name: "only", Rate: 1024 * units.Kbps, WriteFraction: 0.4},
		}},
		{"K=2", []StreamSpec{
			{Name: "playback", Rate: 1024 * units.Kbps, WriteFraction: 0},
			{Name: "recording", Rate: 512 * units.Kbps, WriteFraction: 1},
		}},
		{"K=4", []StreamSpec{
			{Name: "video playback", Rate: 1024 * units.Kbps, WriteFraction: 0},
			{Name: "camera", Rate: 1536 * units.Kbps, WriteFraction: 1},
			{Name: "audio", Rate: 128 * units.Kbps, WriteFraction: 0},
			{Name: "voice memo", Rate: 64 * units.Kbps, WriteFraction: 1},
		}},
	}
	wl := lifetime.DefaultWorkload()
	wl.BestEffortFraction = 0 // compare the clean streaming cycle
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), wl, tc.streams)
			if err != nil {
				t.Fatal(err)
			}
			period := units.Second
			plan, err := s.At(period)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := s.SimulatePlan(plan, 10*units.Minute, 1)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Device.Underruns != 0 {
				t.Errorf("plan-dimensioned buffers underran %d times", stats.Device.Underruns)
			}
			simPerBit := stats.Device.PerBitEnergy().NanojoulesPerBit()
			planPerBit := plan.EnergyPerBit.NanojoulesPerBit()
			if rel := math.Abs(simPerBit-planPerBit) / planPerBit; rel > 0.05 {
				t.Errorf("per-bit energy: sim %.3f vs plan %.3f nJ/b (rel %.3f)", simPerBit, planPerBit, rel)
			}
			// The wake-up frequency (and with it the springs projection)
			// must track the plan's super-cycle period.
			cal := workload.PlaybackCalendar{HoursPerDay: wl.HoursPerDay, DaysPerYear: 365}
			simSprings := stats.Device.ProjectedSpringsLifetime(s.Device, cal).Years()
			planSprings := plan.SpringsLifetime.Years()
			if rel := math.Abs(simSprings-planSprings) / planSprings; rel > 0.05 {
				t.Errorf("springs lifetime: sim %.3f vs plan %.3f years (rel %.3f)", simSprings, planSprings, rel)
			}
			// Writing streams wear the probes in the simulation too.
			simProbes := stats.Device.ProjectedProbesLifetime(s.Device, cal).Years()
			planProbes := plan.ProbesLifetime.Years()
			if math.IsInf(planProbes, 1) {
				if !math.IsInf(simProbes, 1) {
					t.Errorf("probes: sim %.3f years for a read-only plan, want unbounded", simProbes)
				}
			} else if rel := math.Abs(simProbes-planProbes) / planProbes; rel > 0.05 {
				t.Errorf("probes lifetime: sim %.3f vs plan %.3f years (rel %.3f)", simProbes, planProbes, rel)
			}
		})
	}
}

// TestSimConfigForPlanRejectsMismatchedPlan locks in the obvious misuse: a
// plan evaluated for a different stream set cannot be simulated.
func TestSimConfigForPlanRejectsMismatchedPlan(t *testing.T) {
	s := playbackAndRecord(t)
	plan, err := s.At(units.Second)
	if err != nil {
		t.Fatal(err)
	}
	plan.Buffers = plan.Buffers[:1]
	if _, err := s.SimConfigForPlan(plan, units.Minute, 1); err == nil {
		t.Error("mismatched plan accepted")
	}
}

// TestValidateInadmissibleRateError locks in a clear failure mode: an
// aggregate rate beyond the admissible media share must fail Validate with
// an error naming both quantities, not a generic rejection.
func TestValidateInadmissibleRateError(t *testing.T) {
	_, err := NewSystem(device.DefaultMEMS(), device.DefaultDRAM(), lifetime.DefaultWorkload(),
		[]StreamSpec{
			{Name: "a", Rate: 60 * units.Mbps},
			{Name: "b", Rate: 60 * units.Mbps},
		})
	if err == nil {
		t.Fatal("inadmissible aggregate rate accepted")
	}
	msg := err.Error()
	for _, want := range []string{"aggregate rate", "120 Mbps", "admissible"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}
