package sim

import (
	"fmt"
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Parity tolerances between the event-driven engine and the legacy
// fixed-slice oracle. CBR runs are integrated exactly by both paths, so they
// must agree to floating-point noise. For VBR, video and trace demand only
// the engine is exact (TestFrameAccurateRunsStreamTheirFrames): an oracle
// slice that straddles a rate boundary applies the old rate for up to 0.02 s
// into the new segment. Over the five-minute runs below that drift reaches
// 7e-6 (VBR, two-second segments), 0.31 % (video) and 0.25 % (trace replay)
// of the furthest-off quantity, so variableTol leaves a margin of about
// three.
const (
	cbrTol      = 1e-9
	variableTol = 0.01
)

// parityConfig builds the shared base configuration of the parity runs.
func parityConfig(buffer units.Size, rate units.BitRate) Config {
	return Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   buffer,
		Spec:     workload.CBRSpec(rate),
		Duration: 5 * units.Minute,
		Seed:     1,
	}
}

// assertParity compares every SimStats field the acceptance criteria name:
// per-state times and energies, rebuffer (underrun) counts, plus the volume
// counters and cycle counts that feed every derived metric.
func assertParity(t *testing.T, got, want *Stats, tol float64) {
	t.Helper()
	rel := func(name string, g, w float64) {
		t.Helper()
		diff := math.Abs(g - w)
		scale := math.Max(math.Abs(g), math.Abs(w))
		if scale == 0 {
			return
		}
		if diff/scale > tol {
			t.Errorf("%s: event-driven %g vs sliced %g (rel %.2e > %.0e)", name, g, w, diff/scale, tol)
		}
	}
	for s := 0; s < device.NumStates; s++ {
		state := device.PowerState(s)
		rel(fmt.Sprintf("StateTime[%v]", state), got.StateTime[s].Seconds(), want.StateTime[s].Seconds())
		rel(fmt.Sprintf("StateEnergy[%v]", state), got.StateEnergy[s].Joules(), want.StateEnergy[s].Joules())
	}
	if got.Underruns != want.Underruns {
		t.Errorf("Underruns: event-driven %d vs sliced %d", got.Underruns, want.Underruns)
	}
	rel("SimulatedTime", got.SimulatedTime.Seconds(), want.SimulatedTime.Seconds())
	rel("StreamedBits", got.StreamedBits.Bits(), want.StreamedBits.Bits())
	rel("MediaBits", got.MediaBits.Bits(), want.MediaBits.Bits())
	rel("WrittenUserBits", got.WrittenUserBits.Bits(), want.WrittenUserBits.Bits())
	rel("WrittenPhysicalBits", got.WrittenPhysicalBits.Bits(), want.WrittenPhysicalBits.Bits())
	rel("DRAMEnergy", got.DRAMEnergy.Joules(), want.DRAMEnergy.Joules())
	rel("PerBitEnergy", got.PerBitEnergy().JoulesPerBit(), want.PerBitEnergy().JoulesPerBit())
	// Cycle counts are integers: allow the shared relative tolerance plus one
	// cycle for the cut-off at the end of the run.
	if d, lim := math.Abs(float64(got.RefillCycles-want.RefillCycles)), 1+tol*float64(want.RefillCycles); d > lim {
		t.Errorf("RefillCycles: event-driven %d vs sliced %d (|Δ| %.0f > %.1f)",
			got.RefillCycles, want.RefillCycles, d, lim)
	}
}

func TestEventDrivenMatchesSlicedCBR(t *testing.T) {
	cfg := parityConfig(20*units.KiB, 1024*units.Kbps)
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.Device.MediaRate(), 7)
	got, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runLegacySliced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want, cbrTol)
	if got.BestEffortRequests != want.BestEffortRequests {
		t.Errorf("best-effort requests: %d vs %d", got.BestEffortRequests, want.BestEffortRequests)
	}
}

func TestEventDrivenMatchesSlicedVBR(t *testing.T) {
	cfg := parityConfig(64*units.KiB, 1024*units.Kbps)
	cfg.Spec = workload.VBRSpec(1024*units.Kbps, 13)
	got, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runLegacySliced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want, variableTol)
}

// TestEventDrivenMatchesSlicedVideo runs five minutes of frame-accurate
// video, a trace five times longer than TestSpecMatchesLegacySlicedVideo's.
func TestEventDrivenMatchesSlicedVideo(t *testing.T) {
	rate := 1024 * units.Kbps
	cfg := parityConfig(64*units.KiB, rate)
	cfg.Spec = workload.VideoSpec(rate, 3)
	got, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runLegacySliced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want, variableTol)
}

// TestEventDrivenMatchesSlicedTrace replays a 60 s trace (the frames of
// the video run above) for five minutes, so the wrap-around is crossed four
// times. A lookup of the frame at a step's start that disagreed with where
// the step stopped missed the oracle by 1.2 % here.
func TestEventDrivenMatchesSlicedTrace(t *testing.T) {
	rate := 1024 * units.Kbps
	frames, err := workload.VideoSpec(rate, 3).TraceFrames(units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parityConfig(64*units.KiB, rate)
	cfg.Spec = workload.TraceSpec(frames)
	got, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runLegacySliced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want, variableTol)
}

// TestDiskBackendSimulation smoke-tests the pluggable backend: the 1.8-inch
// baseline must stream without underruns through a megabyte-scale buffer and
// charge its (much larger) mechanical overheads per cycle.
func TestDiskBackendSimulation(t *testing.T) {
	disk := device.Default18InchDisk()
	backend := engine.NewDisk(disk)
	cfg := Config{
		Backend:  backend,
		DRAM:     device.DefaultDRAM(),
		Buffer:   8 * units.MB,
		Spec:     workload.CBRSpec(1024 * units.Kbps),
		Duration: 10 * units.Minute,
		Seed:     1,
	}
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Underruns != 0 {
		t.Errorf("disk run underran %d times through an 8 MB buffer", stats.Underruns)
	}
	if stats.RefillCycles == 0 {
		t.Fatal("disk run completed no refill cycles")
	}
	// Each cycle's positioning interval must carry the spin-up + seek energy.
	posTime := backend.PositioningTime().Scale(float64(stats.RefillCycles))
	if got := stats.StateTime[device.StateSeek]; math.Abs(got.Seconds()-posTime.Seconds()) > 1e-6 {
		t.Errorf("positioning time %v, want %v over %d cycles", got, posTime, stats.RefillCycles)
	}
	wantPosEnergy := disk.SpinUpPower.Times(disk.SpinUpTime).
		Add(disk.SeekPower.Times(disk.SeekTime)).
		Scale(float64(stats.RefillCycles))
	if got := stats.StateEnergy[device.StateSeek]; math.Abs(got.Joules()-wantPosEnergy.Joules())/wantPosEnergy.Joules() > 1e-9 {
		t.Errorf("positioning energy %v, want %v", got, wantPosEnergy)
	}
}

// TestDiskBackendRejectsUndersizedBuffer locks in the clear failure mode: a
// buffer that cannot cover the spin-up drain must be rejected, not underrun.
func TestDiskBackendRejectsUndersizedBuffer(t *testing.T) {
	cfg := Config{
		Backend:  engine.NewDisk(device.Default18InchDisk()),
		DRAM:     device.DefaultDRAM(),
		Buffer:   64 * units.KiB, // < rate * (spin-up + seek)
		Spec:     workload.CBRSpec(1024 * units.Kbps),
		Duration: units.Minute,
		Seed:     1,
	}
	if _, err := RunConfig(cfg); err == nil {
		t.Error("a buffer below the spin-up drain should fail")
	}
}

// benchmarkVideoConfig is the shared workload of the stepping benchmarks.
func benchmarkVideoConfig(b *testing.B) Config {
	rate := 1024 * units.Kbps
	cfg := parityConfig(64*units.KiB, rate)
	cfg.Spec = workload.VideoSpec(rate, 3)
	cfg.Duration = units.Minute
	return cfg
}

// BenchmarkSimVideoEventDriven times one simulated minute of a frame-accurate
// video trace on the event-driven engine.
func BenchmarkSimVideoEventDriven(b *testing.B) {
	cfg := benchmarkVideoConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfig(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimVideoLegacySliced times the same run on the preserved
// fixed-slice path, quantifying what event stepping buys.
func BenchmarkSimVideoLegacySliced(b *testing.B) {
	cfg := benchmarkVideoConfig(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runLegacySliced(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimVBREventDriven and its sliced twin show the larger win on
// two-second VBR segments (the event path steps per segment, the sliced path
// fifty times per second).
func BenchmarkSimVBREventDriven(b *testing.B) {
	cfg := parityConfig(64*units.KiB, 1024*units.Kbps)
	cfg.Spec = workload.VBRSpec(1024*units.Kbps, 13)
	cfg.Duration = units.Minute
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfig(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimVBRLegacySliced(b *testing.B) {
	cfg := parityConfig(64*units.KiB, 1024*units.Kbps)
	cfg.Spec = workload.VBRSpec(1024*units.Kbps, 13)
	cfg.Duration = units.Minute
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runLegacySliced(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBackendValidation locks in that the backend path validates the device
// like the MEMS path always did: a physically inconsistent drive must be
// rejected, not simulated into negative energies.
func TestBackendValidation(t *testing.T) {
	broken := device.Default18InchDisk()
	broken.IdlePower = broken.StandbyPower // idle must exceed standby
	cfg := Config{
		Backend:  engine.NewDisk(broken),
		DRAM:     device.DefaultDRAM(),
		Buffer:   8 * units.MB,
		Spec:     workload.CBRSpec(1024 * units.Kbps),
		Duration: units.Minute,
		Seed:     1,
	}
	if _, err := RunConfig(cfg); err == nil {
		t.Error("invalid disk backend accepted")
	}
}
