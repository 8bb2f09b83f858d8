package sim

import (
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// specConfig builds a spec-driven run of the default MEMS device.
func specConfig(spec workload.StreamSpec, buffer units.Size, duration units.Duration) Config {
	return Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   buffer,
		Spec:     spec,
		Duration: duration,
		Seed:     spec.Seed,
	}
}

// TestSpecKindsRun drives every workload kind through the spec path and
// checks the delivered volume tracks the spec's average rate.
func TestSpecKindsRun(t *testing.T) {
	rate := 1024 * units.Kbps
	trace := []workload.Frame{}
	for i := 0; i < 250; i++ {
		trace = append(trace, workload.Frame{
			Timestamp: units.Duration(float64(i) * 0.04),
			Size:      units.Size(rate.BitsPerSecond() * 0.04),
		})
	}
	specs := []workload.StreamSpec{
		workload.CBRSpec(rate),
		workload.VBRSpec(rate, 7),
		workload.VideoSpec(rate, 7),
		workload.TraceSpec(trace),
	}
	for _, spec := range specs {
		stats, err := RunConfig(specConfig(spec, 64*units.KiB, units.Minute))
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if stats.RefillCycles == 0 {
			t.Errorf("%s: no refill cycles", spec.Kind)
		}
		want := spec.AverageRate().Times(stats.SimulatedTime)
		if rel := stats.StreamedBits.DivideBy(want); rel < 0.85 || rel > 1.15 {
			t.Errorf("%s: streamed %v, want within 15%% of %v", spec.Kind, stats.StreamedBits, want)
		}
		if stats.RebufferEpisodes > stats.Underruns {
			t.Errorf("%s: %d episodes exceed %d underrun steps", spec.Kind, stats.RebufferEpisodes, stats.Underruns)
		}
		if !stats.StartupDelay.Positive() {
			t.Errorf("%s: startup delay missing", spec.Kind)
		}
	}
}

// TestSpecVideoCoversFullDuration is the end-to-end regression for the
// 60-second horizon bug: a 5-minute spec-driven video run must consume a
// trace generated for the full 5 minutes, not a replayed 60-second window.
// The delivered volume is checked against the pattern the spec itself
// builds for that duration — 7500 frames at 25 fps.
func TestSpecVideoCoversFullDuration(t *testing.T) {
	rate := 1024 * units.Kbps
	spec := workload.VideoSpec(rate, 3)
	duration := 5 * units.Minute
	p, err := spec.Pattern(duration)
	if err != nil {
		t.Fatal(err)
	}
	vp := p.(*workload.VideoRatePattern)
	if got, want := len(vp.Frames()), 7500; got != want {
		t.Fatalf("spec generated %d frames for a 5-minute run, want %d", got, want)
	}
	stats, err := RunConfig(specConfig(spec, 64*units.KiB, duration))
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.SimulatedTime.Seconds(); math.Abs(got-300) > 1 {
		t.Errorf("simulated %v, want the full 5 minutes", stats.SimulatedTime)
	}
	want := framePlayback(vp.Frames(), duration, stats.SimulatedTime)
	if rel := stats.StreamedBits.Bits() / want; rel < 0.95 || rel > 1.05 {
		t.Errorf("streamed %v, want within 5%% of the %.0f bits the full trace plays", stats.StreamedBits, want)
	}
}

// TestSpecPeakAboveMediaRateRejected locks in the admission check: a video
// spec whose peak bound reaches the media rate must fail validation, not
// underrun at run time.
func TestSpecPeakAboveMediaRateRejected(t *testing.T) {
	cfg := specConfig(workload.VideoSpec(90*units.Mbps, 1), 10*units.MiB, units.Second)
	if err := cfg.Validate(); err == nil {
		t.Error("video spec peaking above the media rate accepted")
	}
}

// TestBestEffortWritesCountAsUserBits is the regression test for the wear
// accounting fix: best-effort writes must appear in WrittenUserBits and
// carry the formatting inflation in WrittenPhysicalBits, exactly like
// stream writes.
func TestBestEffortWritesCountAsUserBits(t *testing.T) {
	rate := 1024 * units.Kbps
	base := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   20 * units.KiB,
		Spec:     workload.CBRSpec(rate),
		Duration: 2 * units.Minute,
		Seed:     7,
	}
	// The stream itself writes nothing, so every written bit is best-effort.
	base.Spec.WriteFraction = 0
	base.BestEffort = workload.NewBestEffortProcess(0.05, base.Device.MediaRate(), 7)

	stats, err := RunConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BestEffortRequests == 0 {
		t.Fatal("no best-effort traffic served")
	}
	if !stats.WrittenUserBits.Positive() {
		t.Error("best-effort writes missing from WrittenUserBits")
	}
	// Physical writes must exceed user writes by the formatting inflation
	// (sectors at this buffer size pay a real overhead).
	if stats.WrittenPhysicalBits <= stats.WrittenUserBits {
		t.Errorf("physical %v not above user %v — inflation lost", stats.WrittenPhysicalBits, stats.WrittenUserBits)
	}
	// And the projections must see them: a finite probes lifetime.
	life := stats.ProjectedProbesLifetime(base.Device, workload.DefaultCalendar())
	if math.IsInf(life.Seconds(), 0) {
		t.Error("probes projection ignores best-effort writes")
	}
}
