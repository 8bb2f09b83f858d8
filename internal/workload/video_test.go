package workload

import (
	"math"
	"testing"
	"testing/quick"

	"memstream/internal/units"
)

func TestVideoStreamValidation(t *testing.T) {
	good := VideoSpec(1024*units.Kbps, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default video spec invalid: %v", err)
	}
	// Zero-valued GOP parameters take the VideoSpec defaults.
	if err := (StreamSpec{Kind: SpecVideo, Rate: units.Kbps}).Validate(); err != nil {
		t.Errorf("zero-valued video spec invalid: %v", err)
	}
	mutations := []func(*StreamSpec){
		func(s *StreamSpec) { s.Rate = 0 },
		func(s *StreamSpec) { s.IPDistance = s.GOPLength + 1 },
		func(s *StreamSpec) { s.Jitter = 1 },
		func(s *StreamSpec) { s.Jitter = -0.1 },
		func(s *StreamSpec) { s.WriteFraction = -0.1 },
		// Negative and NaN parameters fail instead of taking the defaults.
		func(s *StreamSpec) { s.FrameRate = -1 },
		func(s *StreamSpec) { s.FrameRate = math.NaN() },
		func(s *StreamSpec) { s.GOPLength = -12 },
		func(s *StreamSpec) { s.IPDistance = -3 },
		func(s *StreamSpec) { s.WeightI = -5 },
		func(s *StreamSpec) { s.WeightP = math.NaN() },
		func(s *StreamSpec) { s.WeightB = -1 },
	}
	for i, mutate := range mutations {
		s := VideoSpec(1024*units.Kbps, 1)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d validated unexpectedly", i)
		}
	}
}

func TestFrameClassString(t *testing.T) {
	if FrameI.String() != "I" || FrameP.String() != "P" || FrameB.String() != "B" {
		t.Error("frame class names wrong")
	}
	if FrameClass(9).String() == "" {
		t.Error("unknown frame class has empty name")
	}
}

func TestGOPStructure(t *testing.T) {
	v := VideoSpec(1024*units.Kbps, 1)
	// IBBPBBPBBPBB with N=12, M=3.
	want := []FrameClass{FrameI, FrameB, FrameB, FrameP, FrameB, FrameB, FrameP, FrameB, FrameB, FrameP, FrameB, FrameB}
	for k, w := range want {
		if got := v.classOf(k); got != w {
			t.Errorf("frame %d class = %v, want %v", k, got, w)
		}
	}
}

func TestGenerateTraceAveragesToNominalRate(t *testing.T) {
	horizon := 60 * units.Second
	frames, err := VideoSpec(1024*units.Kbps, 3).TraceFrames(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1500 { // 25 fps * 60 s
		t.Fatalf("got %d frames, want 1500", len(frames))
	}
	var total units.Size
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
		if !f.Size.Positive() {
			t.Fatalf("frame %d has non-positive size", i)
		}
		total = total.Add(f.Size)
	}
	avg := total.Bits() / horizon.Seconds()
	if math.Abs(avg-1.024e6)/1.024e6 > 0.03 {
		t.Errorf("average rate = %g bps, want within 3%% of 1.024e6", avg)
	}
	// I frames are larger than P frames, which are larger than B frames
	// (compare class means, the per-frame jitter is ±20%).
	var sumI, sumP, sumB float64
	var nI, nP, nB int
	for _, f := range frames {
		switch f.Class {
		case FrameI:
			sumI += f.Size.Bits()
			nI++
		case FrameP:
			sumP += f.Size.Bits()
			nP++
		default:
			sumB += f.Size.Bits()
			nB++
		}
	}
	if nI == 0 || nP == 0 || nB == 0 {
		t.Fatal("some frame class never appeared")
	}
	if !(sumI/float64(nI) > sumP/float64(nP) && sumP/float64(nP) > sumB/float64(nB)) {
		t.Errorf("mean frame sizes not ordered I > P > B: %g %g %g",
			sumI/float64(nI), sumP/float64(nP), sumB/float64(nB))
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	v := VideoSpec(1024*units.Kbps, 1)
	if _, _, err := v.appendTrace(nil, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	v.IPDistance = v.GOPLength + 1
	if _, err := v.TraceFrames(units.Second); err == nil {
		t.Error("invalid stream accepted")
	}
}

// traceMean returns the mean demand of a generated video trace: its frames'
// bits over the horizon they play.
func traceMean(p *VideoRatePattern) units.BitRate {
	var total units.Size
	for _, f := range p.Frames() {
		total = total.Add(f.Size)
	}
	return units.BitPerSecond.Scale(total.Bits() / p.horizon.Seconds())
}

func TestVideoRatePattern(t *testing.T) {
	v := VideoSpec(1024*units.Kbps, 5)
	p, err := newVideoRatePattern(v, 30*units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Frames()) == 0 {
		t.Fatal("pattern holds no frames")
	}
	// The trace's mean demand stays near nominal and the peak exceeds it (I
	// frames).
	if got := traceMean(p).BitsPerSecond(); math.Abs(got-1.024e6)/1.024e6 > 0.05 {
		t.Errorf("average rate = %g, want near 1.024e6", got)
	}
	if p.PeakRate() <= v.Rate {
		t.Errorf("peak rate %v not above nominal %v", p.PeakRate(), v.Rate)
	}
	if p.PeakRate().BitsPerSecond() > 5*v.Rate.BitsPerSecond() {
		t.Errorf("peak rate %v implausibly high", p.PeakRate())
	}
	// Sampling at any time returns a positive rate bounded by the peak, and
	// times beyond the horizon wrap around rather than failing.
	for _, at := range []units.Duration{0, units.Second, 29 * units.Second, 45 * units.Second, 300 * units.Second, -1} {
		r := rateAt(p, at)
		if !r.Positive() || r > p.PeakRate() {
			t.Errorf("rate at %v = %v outside (0, peak]", at, r)
		}
	}
}

func TestVideoRatePatternRejectsInvalid(t *testing.T) {
	v := VideoSpec(1024*units.Kbps, 1)
	v.Jitter = 1
	if _, err := v.Pattern(10 * units.Second); err == nil {
		t.Error("invalid stream accepted")
	}
	if _, err := newVideoRatePattern(VideoSpec(1024*units.Kbps, 1), units.Duration(0.001)); err == nil {
		t.Error("horizon shorter than one frame accepted")
	}
}

func TestVideoTraceDeterministic(t *testing.T) {
	v := VideoSpec(2048*units.Kbps, 11)
	a, err := v.TraceFrames(10 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.TraceFrames(10 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

// Property: for any seed and rate, the trace average stays within 5% of the
// nominal rate and every frame is positive.
func TestQuickVideoTraceAverage(t *testing.T) {
	f := func(seed uint64, rawRate uint16) bool {
		rate := units.BitRate(int(rawRate%4000)+64) * units.Kbps
		frames, err := VideoSpec(rate, seed).TraceFrames(20 * units.Second)
		if err != nil {
			return false
		}
		var total units.Size
		for _, f := range frames {
			if !f.Size.Positive() {
				return false
			}
			total = total.Add(f.Size)
		}
		avg := total.Bits() / 20
		return math.Abs(avg-rate.BitsPerSecond())/rate.BitsPerSecond() < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
