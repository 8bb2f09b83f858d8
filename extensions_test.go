package memstream

import (
	"math"
	"strings"
	"testing"
)

func TestSharedSystemFacade(t *testing.T) {
	system, err := NewSharedSystem(DefaultDevice(), []StreamSpec{
		{Name: "playback", Rate: 1024 * Kbps, WriteFraction: 0},
		{Name: "recording", Rate: 512 * Kbps, WriteFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := system.Dimension(PaperGoalB())
	if err != nil {
		t.Fatal(err)
	}
	if !dim.Feasible {
		t.Fatalf("shared playback+recording should be feasible: %+v", dim.Reasons)
	}
	if len(dim.Plan.Buffers) != 2 {
		t.Fatalf("expected two per-stream buffers, got %d", len(dim.Plan.Buffers))
	}
	if dim.Plan.TotalBuffer <= dim.Plan.Buffers[0] {
		t.Error("total buffer must exceed any single stream's buffer")
	}
	// The faster stream gets the larger buffer (rate-proportional sizing).
	if dim.Plan.Buffers[0] <= dim.Plan.Buffers[1] {
		t.Errorf("playback buffer %v should exceed recording buffer %v",
			dim.Plan.Buffers[0], dim.Plan.Buffers[1])
	}
}

func TestSharedSystemWithWorkloadFacade(t *testing.T) {
	wl := DefaultWorkload()
	wl.HoursPerDay = 4
	system, err := NewSharedSystemWithWorkload(DefaultDevice(), DefaultDRAM(), wl, []StreamSpec{
		{Name: "only", Rate: 1024 * Kbps, WriteFraction: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Halving the daily usage halves the wear, so the springs demand for the
	// same lifetime target halves compared to the 8-hour calendar.
	full, err := NewSharedSystem(DefaultDevice(), []StreamSpec{
		{Name: "only", Rate: 1024 * Kbps, WriteFraction: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	d4, err := system.Dimension(PaperGoalB())
	if err != nil {
		t.Fatal(err)
	}
	d8, err := full.Dimension(PaperGoalB())
	if err != nil {
		t.Fatal(err)
	}
	r4 := d4.PeriodFor[ConstraintSprings].Seconds()
	r8 := d8.PeriodFor[ConstraintSprings].Seconds()
	if math.Abs(r4*2-r8)/r8 > 1e-6 {
		t.Errorf("springs demand did not halve with half the usage: %g vs %g", r4, r8)
	}
}

func TestDiskEnergyModelFacade(t *testing.T) {
	model, err := NewDiskEnergyModel(DefaultDisk(), 1024*Kbps)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := model.BufferForSaving(0.40)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Bytes() < 1e6 {
		t.Errorf("disk buffer for a 40%% saving = %v, want megabytes", buf)
	}
}

func TestDiskEnergyComparison(t *testing.T) {
	rows, err := DiskEnergyComparison(DefaultDevice(), DefaultDisk(), 0.50,
		[]BitRate{128 * Kbps, 1024 * Kbps})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.MEMSFeasible {
			t.Errorf("50%% saving should be reachable on MEMS at %v", r.Rate)
			continue
		}
		if !r.DiskFeasible {
			t.Errorf("50%% saving should be reachable on the disk at %v", r.Rate)
			continue
		}
		if ratio := r.DiskBuffer.DivideBy(r.MEMSBuffer); ratio < 100 {
			t.Errorf("disk/MEMS energy-buffer ratio at %v = %g, want orders of magnitude", r.Rate, ratio)
		}
		if r.DiskPerBit <= r.MEMSPerBit {
			t.Errorf("disk per-bit energy should exceed MEMS at %v: %v vs %v",
				r.Rate, r.DiskPerBit, r.MEMSPerBit)
		}
	}
}

func TestVideoStreamFacade(t *testing.T) {
	video := VideoSpec(1024*Kbps, 5)
	if err := video.Validate(); err != nil {
		t.Fatal(err)
	}
	if video.PeakRate() <= 1024*Kbps {
		t.Error("video peak rate should exceed the nominal rate")
	}
	// Drive a simulation with the video spec through the public API.
	cfg := SimConfig{
		Device:   DefaultDevice(),
		DRAM:     DefaultDRAM(),
		Buffer:   64 * KiB,
		Spec:     video,
		Duration: 60 * Second,
		Seed:     5,
	}
	stats, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Underruns != 0 {
		t.Errorf("video simulation underran %d times", stats.Underruns)
	}
	// Frame classes behave as expected through the aliases.
	frames, err := video.TraceFrames(cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if frames[0].Class != FrameI {
		t.Errorf("first frame class = %v, want I", frames[0].Class)
	}
	sawP, sawB := false, false
	for _, f := range frames[:12] {
		switch f.Class {
		case FrameP:
			sawP = true
		case FrameB:
			sawB = true
		}
	}
	if !sawP || !sawB {
		t.Error("first GOP lacks P or B frames")
	}
}

func TestSimulateMultiFacade(t *testing.T) {
	cfg := SimMultiConfig{
		Device: DefaultDevice(),
		DRAM:   DefaultDRAM(),
		Streams: []SimMultiStream{
			{Name: "playback", Spec: VideoSpec(1024*Kbps, 42), Buffer: 256 * KiB},
			{Name: "recording", Spec: CBRSpec(512 * Kbps), Buffer: 64 * KiB},
		},
		Policy:   PolicyMostUrgent,
		Duration: 30 * Second,
		Seed:     42,
	}
	stats, err := SimulateMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Device.Underruns != 0 {
		t.Errorf("shared device underran %d times", stats.Device.Underruns)
	}
	if len(stats.Streams) != 2 {
		t.Fatalf("stream records = %d, want 2", len(stats.Streams))
	}
	if stats.Streams[0].Name != "playback" {
		t.Errorf("stream order lost: %q first", stats.Streams[0].Name)
	}

	// Batch runs are bit-identical to sequential ones.
	batch, err := SimulateMultiBatch(cfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Device != batch[1].Device {
		t.Error("identical batch entries diverged")
	}

	// Facade errors carry the package prefix.
	bad := cfg
	bad.Duration = 0
	if _, err := SimulateMulti(bad); err == nil || !strings.HasPrefix(err.Error(), "memstream: ") {
		t.Errorf("error %v lacks the memstream prefix", err)
	}
	if _, err := SimulateMultiBatch(bad); err == nil || !strings.HasPrefix(err.Error(), "memstream: ") {
		t.Errorf("batch error %v lacks the memstream prefix", err)
	}
}
