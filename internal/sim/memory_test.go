package sim

import (
	"math"
	"runtime"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// bytesAllocated returns the fewest heap bytes f allocates over five calls,
// each measured after its own collection, so an allocation from elsewhere
// in the process landing in one window cannot inflate the figure.
func bytesAllocated(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestSimulatorMemoryIndependentOfDuration checks that a simulator's size
// does not grow with what it simulates: building one for an hour or under
// a 99 % best-effort load allocates exactly what a one-minute, 5 % build
// does, for a CBR and a video stream and for the shared-device simulator
// alike. The background requests are drawn as the run reaches them, and
// the video frames computed from their seed, not stored.
func TestSimulatorMemoryIndependentOfDuration(t *testing.T) {
	stream := func(spec workload.StreamSpec, buffer units.Size) func(float64, units.Duration) func() {
		return func(fraction float64, d units.Duration) func() {
			cfg := Config{
				Device:   device.DefaultMEMS(),
				DRAM:     device.DefaultDRAM(),
				Buffer:   buffer,
				Spec:     spec,
				Duration: d,
				Seed:     1,
			}
			cfg.BestEffort = workload.NewBestEffortProcess(fraction, cfg.MediaRate(), 1)
			return func() {
				if _, err := New(cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	multi := func(fraction float64, d units.Duration) func() {
		cfg := twoStreamConfig()
		cfg.Duration = d
		cfg.BestEffort = workload.NewBestEffortProcess(fraction, cfg.MediaRate(), 1)
		return func() {
			if _, err := NewMulti(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	builds := []struct {
		name  string
		build func(float64, units.Duration) func()
	}{
		{"single", stream(workload.CBRSpec(1024*units.Kbps), 64*units.KiB)},
		{"video", stream(workload.VideoSpec(1024*units.Kbps, 1), 128*units.KiB)},
		{"multi", multi},
	}
	for _, b := range builds {
		want := bytesAllocated(b.build(0.05, units.Minute))
		t.Logf("%s: %d B per build", b.name, want)
		for _, fraction := range []float64{0.05, 0.99} {
			for _, d := range []units.Duration{units.Minute, units.Hour} {
				if got := bytesAllocated(b.build(fraction, d)); got != want {
					t.Errorf("%s, %v at %g best effort: building allocates %d B, want %d B (one minute at 0.05)",
						b.name, d, fraction, got, want)
				}
			}
		}
	}
}

// TestVideoPatternKeepsFrameSizes checks that a generated video costs the
// same whatever its length: building an hour of video allocates exactly
// what a minute does, because the pattern computes each frame's size from
// its seed and keeps none.
func TestVideoPatternKeepsFrameSizes(t *testing.T) {
	spec := workload.VideoSpec(1024*units.Kbps, 1)
	build := func(d units.Duration) uint64 {
		return bytesAllocated(func() {
			if _, err := spec.Pattern(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	minute, hour := build(units.Minute), build(units.Hour)
	t.Logf("a minute of video: %d B, an hour: %d B", minute, hour)
	if hour != minute {
		t.Errorf("an hour of video allocates %d B, a minute %d B; want the same", hour, minute)
	}
}
