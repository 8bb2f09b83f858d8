package sim

import (
	"strings"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func TestVideoTraceSimulation(t *testing.T) {
	// Drive the simulator with a frame-accurate MPEG-like trace instead of
	// the smooth VBR model. The buffer must be provisioned against the peak
	// (I-frame) demand; with a generous buffer the stream plays without
	// underruns and the delivered volume matches the trace average.
	rate := 1024 * units.Kbps
	cfg := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   64 * units.KiB,
		Spec:     workload.VideoSpec(rate, 3),
		Duration: 3 * units.Minute,
		Seed:     3,
	}
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Underruns != 0 {
		t.Errorf("video trace underran %d times with a 64 KiB buffer", stats.Underruns)
	}
	if stats.RefillCycles == 0 {
		t.Fatal("no refill cycles")
	}
	want := cfg.Spec.AverageRate().Times(stats.SimulatedTime)
	if rel := stats.StreamedBits.DivideBy(want); rel < 0.85 || rel > 1.15 {
		t.Errorf("streamed %v, want within 15%% of %v", stats.StreamedBits, want)
	}
	// The energy stays in the same ballpark as the CBR run at the same
	// average rate and buffer.
	cbr, err := RunConfig(baseConfig(64*units.KiB, rate))
	if err != nil {
		t.Fatal(err)
	}
	simNJ := stats.PerBitEnergy().NanojoulesPerBit()
	cbrNJ := cbr.PerBitEnergy().NanojoulesPerBit()
	if simNJ < 0.7*cbrNJ || simNJ > 1.5*cbrNJ {
		t.Errorf("video per-bit energy %g nJ/b far from the CBR reference %g nJ/b", simNJ, cbrNJ)
	}
}

func TestVideoTracePeakAboveMediaRateRejected(t *testing.T) {
	// A replayed frame trace whose peak exceeds the media rate must be
	// rejected at validation time, from the trace's own realized peak.
	frames, err := workload.VideoSpec(90*units.Mbps, 1).TraceFrames(10 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   10 * units.MiB,
		Spec:     workload.TraceSpec(frames),
		Duration: units.Second,
	}
	if err := cfg.Validate(); err == nil {
		t.Error("frame trace peaking above the media rate accepted")
	}
}

// TestFloorDominatedVideoRejected checks that admission counts the 8-bit
// floor every generated frame gets: a 1 kbps video at 2e7 frames per second
// has nominal frames far below a bit, yet plays 160 Mbps against the
// 102.4 Mbps media rate, so both validators reject it by its peak. Only
// Validate is called: the engine's contract excludes running it.
func TestFloorDominatedVideoRejected(t *testing.T) {
	spec := workload.VideoSpec(units.Kbps, 1)
	spec.FrameRate = 2e7
	cfg := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   64 * units.KiB,
		Spec:     spec,
		Duration: units.Second,
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "sim: the stream's peak demand must be below the media rate") {
		t.Errorf("Config.Validate = %v, want the peak-demand rejection", err)
	}
	multi := MultiConfig{
		Device:   cfg.Device,
		DRAM:     cfg.DRAM,
		Streams:  []MultiStream{{Name: "v", Spec: spec, Buffer: cfg.Buffer}},
		Duration: cfg.Duration,
	}
	want := "sim: stream 0 (v): peak demand 160 Mbps must be below the media rate 102 Mbps"
	if err := multi.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("MultiConfig.Validate = %v, want %q", err, want)
	}
}

func TestVideoTraceTightBufferUnderruns(t *testing.T) {
	// With a buffer barely above the seek-time drain at nominal rate, the
	// I-frame bursts of the trace outrun the refills and underruns appear —
	// exactly the peak-provisioning effect the analytical model cannot see.
	rate := 1024 * units.Kbps
	spec := workload.VideoSpec(rate, 9)
	spec.Jitter = 0.4
	cfg := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   units.Size(4000), // ~0.5 KiB: covers the peak-rate seek drain, nothing more
		Spec:     spec,
		Duration: time30s(),
		Seed:     9,
	}
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Skipf("buffer below the schedulable minimum in this calibration: %v", err)
	}
	if stats.MinBufferLevel.Bits() > 1000 && stats.Underruns == 0 {
		t.Errorf("expected the tight buffer to be stressed (min level %v, %d underruns)",
			stats.MinBufferLevel, stats.Underruns)
	}
}

func time30s() units.Duration { return 30 * units.Second }
