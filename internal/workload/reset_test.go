package workload

import (
	"reflect"
	"testing"

	"memstream/internal/units"
)

// rateAt samples the demand a pattern plays at t, looked up without a
// cursor.
func rateAt(p Pattern, t units.Duration) units.BitRate {
	rate, _, _ := p.Segment(t, NoCursor)
	return rate
}

// segment is one constant-demand segment a pattern reports.
type segment struct {
	rate units.BitRate
	end  units.Duration
}

// sampleSegments walks the pattern through the first minute at a
// quarter-second step and records the segment holding each step.
func sampleSegments(p Pattern) []segment {
	out := make([]segment, 0, 240)
	for i := 0; i < 240; i++ {
		rate, end, _ := p.Segment(units.Second.Scale(float64(i)*0.25), NoCursor)
		out = append(out, segment{rate, end})
	}
	return out
}

// TestRatePatternResetMatchesFresh checks that Reset, called through the
// Pattern interface as the simulators call it, leaves a pattern replaying
// exactly what a fresh build for the new seed plays: VBR redraws its
// segments, CBR stays constant, and a trace, which carries no seed, keeps
// every segment.
func TestRatePatternResetMatchesFresh(t *testing.T) {
	video, err := VideoSpec(1024*units.Kbps, 3).Pattern(10 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	frames := video.(*VideoRatePattern).Frames()
	for _, spec := range []StreamSpec{VBRSpec(1024*units.Kbps, 1), CBRSpec(1024 * units.Kbps), TraceSpec(frames)} {
		p, err := spec.Pattern(units.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// Advance the pattern well into its sequence before resetting, so
		// stale segment state would be caught.
		before := sampleSegments(p)

		if err := p.Reset(42); err != nil {
			t.Fatal(err)
		}
		got := sampleSegments(p)

		spec.Seed = 42
		fresh, err := spec.Pattern(units.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sampleSegments(fresh)) {
			t.Errorf("reset %s pattern diverges from a freshly built one", spec.Kind)
		}
		if spec.Kind == SpecTrace && !reflect.DeepEqual(got, before) {
			t.Error("reset changed a trace's segments")
		}
	}
}

func TestVideoRatePatternResetMatchesFresh(t *testing.T) {
	spec := VideoSpec(1024*units.Kbps, 1)
	horizon := 30 * units.Second
	p, err := newVideoRatePattern(spec, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(42); err != nil {
		t.Fatal(err)
	}

	spec.Seed = 42
	fresh, err := newVideoRatePattern(spec, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Frames(), fresh.Frames()) {
		t.Error("reset video trace diverges from a freshly generated one")
	}
	if p.PeakRate() != fresh.PeakRate() {
		t.Errorf("reset peak %v, fresh peak %v", p.PeakRate(), fresh.PeakRate())
	}
}

func TestVideoRatePatternResetDoesNotAllocate(t *testing.T) {
	p, err := newVideoRatePattern(VideoSpec(1024*units.Kbps, 1), 30*units.Second)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if err := p.Reset(seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset allocates %.1f times per call, want 0", allocs)
	}
}

// TestAppendRequestsMatchesGenerate checks what the simulators' reset path
// relies on: a rebuilt request sequence replays the first walk exactly, and
// a zero-fraction process yields nothing.
func TestAppendRequestsMatchesGenerate(t *testing.T) {
	proc := NewBestEffortProcess(0.05, 50*units.Mbps, 7)
	horizon := 2 * units.Minute
	want := drawRequests(t, proc, horizon)
	if len(want) == 0 {
		t.Fatal("no requests drawn; the replay is untested")
	}

	// Walk part of the sequence, then rebuild it over the walked value, as
	// a simulator's reset does.
	a, err := proc.Arrivals(horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := a.Next(horizon / 2); ok; _, ok = a.Next(horizon / 2) {
	}
	if a, err = proc.Arrivals(horizon); err != nil {
		t.Fatal(err)
	}
	var got []BestEffortRequest
	for r, ok := a.Next(horizon); ok; r, ok = a.Next(horizon) {
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a rebuilt request sequence diverges from a fresh walk")
	}

	idle := BestEffortProcess{}
	if out, err := collectArrivals(idle, horizon); err != nil || len(out) != 0 {
		t.Errorf("zero-fraction process: got (%d requests, %v)", len(out), err)
	}
}

func TestRngSeedRestartsSequence(t *testing.T) {
	r := NewRng(9)
	first := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r.Seed(9)
	for i, want := range first {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d after reseed = %d, want %d", i, got, want)
		}
	}
}
