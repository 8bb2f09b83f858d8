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

// sampleRates walks the pattern through the first minute at a quarter-second
// step, driving the lazy segment draws exactly as an integrator would.
func sampleRates(p Pattern) []units.BitRate {
	out := make([]units.BitRate, 0, 240)
	for i := 0; i < 240; i++ {
		out = append(out, rateAt(p, units.Second.Scale(float64(i)*0.25)))
	}
	return out
}

func TestRatePatternResetMatchesFresh(t *testing.T) {
	spec := VBRSpec(1024*units.Kbps, 1)
	p, err := spec.Pattern(units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Advance the pattern well into its sequence before resetting, so stale
	// segment state would be caught.
	_ = sampleRates(p)

	p.(*RatePattern).Reset(42)
	got := sampleRates(p)

	spec.Seed = 42
	fresh, err := spec.Pattern(units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRates(fresh)
	if !reflect.DeepEqual(got, want) {
		t.Error("reset VBR pattern diverges from a freshly built one")
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
	if p.AverageRate() != fresh.AverageRate() {
		t.Errorf("reset average %v, fresh average %v", p.AverageRate(), fresh.AverageRate())
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
