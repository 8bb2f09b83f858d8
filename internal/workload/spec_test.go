package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"memstream/internal/units"
)

func TestSpecValidate(t *testing.T) {
	good := []StreamSpec{
		CBRSpec(1024 * units.Kbps),
		VBRSpec(1024*units.Kbps, 7),
		VideoSpec(1024*units.Kbps, 7),
		TraceSpec([]Frame{
			{Timestamp: 0, Size: 4000},
			{Timestamp: units.Duration(0.04), Size: 5000},
		}),
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", s.Kind, err)
		}
	}
	nan := math.NaN()
	with := func(s StreamSpec, edit func(*StreamSpec)) StreamSpec { edit(&s); return s }
	frames := []Frame{{Timestamp: 0, Size: 4000}}
	bad := []struct {
		spec StreamSpec
		want string // a fragment of the expected message
	}{
		{StreamSpec{}, "unknown stream kind"},
		{StreamSpec{Kind: "chaos", Rate: units.Kbps}, "unknown stream kind"},
		{CBRSpec(0), "nominal rate must be positive"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.Jitter = 2 }), "jitter must be in [0, 1)"},
		{TraceSpec(nil), "trace holds no frames"},
		{TraceSpec([]Frame{{Timestamp: units.Second, Size: 4000}}), "must start at time zero"},
		// NaN fails every range check instead of slipping through as pure
		// playback or a NaN rate.
		{with(CBRSpec(units.Kbps), func(s *StreamSpec) { s.WriteFraction = nan }), "write fraction must be in [0, 1]"},
		{with(VBRSpec(units.Kbps, 1), func(s *StreamSpec) { s.WriteFraction = nan }), "write fraction must be in [0, 1]"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.WriteFraction = nan }), "write fraction must be in [0, 1]"},
		{with(TraceSpec(frames), func(s *StreamSpec) { s.WriteFraction = nan }), "write fraction must be in [0, 1]"},
		{with(VBRSpec(units.Kbps, 1), func(s *StreamSpec) { s.Variability = nan }), "variability must be in [0, 1)"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.Jitter = nan }), "jitter must be in [0, 1)"},
		// Only zero takes a default: a negative or NaN parameter is an
		// error, not a silent stand-in for the default.
		{with(VBRSpec(units.Kbps, 1), func(s *StreamSpec) { s.SegmentLength = -units.Second }), "positive segment length"},
		{with(VBRSpec(units.Kbps, 1), func(s *StreamSpec) { s.SegmentLength = units.Duration(nan) }), "positive segment length"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.FrameRate = -1 }), "frame rate must be positive"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.FrameRate = nan }), "frame rate must be positive"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.GOPLength = -1 }), "GOP length must be at least 1"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.IPDistance = -1 }), "anchor distance must be in [1, GOP length]"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.WeightI = nan }), "frame weights must be positive"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.WeightP = -1 }), "frame weights must be positive"},
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.WeightB = nan }), "frame weights must be positive"},
		// An infinite weight would make every frame of its type NaN bits.
		{with(VideoSpec(units.Kbps, 1), func(s *StreamSpec) { s.WeightI = math.Inf(1) }), "frame weights must be positive"},
	}
	for i, c := range bad {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("bad spec %d (%q) validated", i, c.spec.Kind)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("bad spec %d (%q): error %q, want it to mention %q", i, c.spec.Kind, err, c.want)
		}
	}
}

func TestSpecPeakRateBounds(t *testing.T) {
	rate := 1024 * units.Kbps
	if got := CBRSpec(rate).PeakRate(); got != rate {
		t.Errorf("cbr peak = %v, want %v", got, rate)
	}
	if got, want := VBRSpec(rate, 1).PeakRate(), rate.Scale(1.3); math.Abs(got.BitsPerSecond()-want.BitsPerSecond()) > 1 {
		t.Errorf("vbr peak = %v, want %v", got, want)
	}
	// The analytic video bound dominates the realized peak of any trace.
	spec := VideoSpec(rate, 5)
	bound := spec.PeakRate()
	if bound <= rate {
		t.Fatalf("video peak bound %v not above nominal %v", bound, rate)
	}
	p, err := spec.Pattern(60 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if realized := p.PeakRate(); realized > bound {
		t.Errorf("realized peak %v exceeds the analytic bound %v", realized, bound)
	}
	// Nothing forces I frames to be the largest class: with inverted
	// weights the bound must still dominate the realized (P-frame) peak.
	inverted := VideoSpec(rate, 5)
	inverted.WeightI, inverted.WeightP, inverted.WeightB = 1, 10, 1
	invBound := inverted.PeakRate()
	ip, err := inverted.Pattern(60 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	if realized := ip.PeakRate(); realized > invBound {
		t.Errorf("inverted-weight realized peak %v exceeds the bound %v", realized, invBound)
	}
}

// TestSpecPeakBoundsEveryRealizedRate checks the bound admission compares
// against the media rate over generated specs of every kind: neither the
// built pattern's PeakRate nor the rate of any segment it plays exceeds
// StreamSpec.PeakRate, not even in the last bit. Videos reach down to
// 1 bit/s at up to 1e5 frames per second, where the 8-bit frame floor, not
// the nominal rate, sets the peak; a quarter of them have no jitter, so
// their largest frame meets the bound exactly.
func TestSpecPeakBoundsEveryRealizedRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	const segments = 400
	for i := 0; i < 2000; i++ {
		rate := units.Kbps.Scale(logUniform(0.001, 8000))
		vbr := VBRSpec(rate, rng.Uint64())
		vbr.Variability = 0.999 * rng.Float64()
		vbr.SegmentLength = units.Second.Scale(logUniform(1e-3, 10))
		video := VideoSpec(rate, rng.Uint64())
		video.FrameRate = logUniform(1, 1e5)
		video.GOPLength = 1 + rng.Intn(15)
		video.IPDistance = 1 + rng.Intn(video.GOPLength)
		video.WeightI, video.WeightP, video.WeightB = logUniform(0.1, 10), logUniform(0.1, 10), logUniform(0.1, 10)
		if video.Jitter = 0.999 * rng.Float64(); i%4 == 0 {
			video.Jitter = 0
		}
		frames := make([]Frame, 1+rng.Intn(50))
		var at units.Duration
		for j := range frames {
			frames[j] = Frame{Index: j, Timestamp: at, Size: units.Bit.Scale(logUniform(1, 1e6))}
			at = at.Add(units.Second.Scale(logUniform(1e-4, 1)))
		}
		for _, spec := range []StreamSpec{CBRSpec(rate), vbr, video, TraceSpec(frames)} {
			bound := spec.PeakRate()
			// A horizon of that many video frames; the other kinds ignore it.
			p, err := spec.Pattern(units.Second.Scale(segments / video.FrameRate))
			if err != nil {
				t.Fatalf("%s spec %d: %v", spec.Kind, i, err)
			}
			if peak := p.PeakRate(); peak > bound {
				t.Fatalf("%s spec %d: pattern peak %v above the spec's bound %v (%+v)", spec.Kind, i, peak, bound, spec)
			}
			at, cursor := units.Duration(0), NoCursor
			for n := 0; n < segments && !math.IsInf(at.Seconds(), 1); n++ {
				r, end, next := p.Segment(at, cursor)
				if r > bound {
					t.Fatalf("%s spec %d: segment %d plays %v, above the spec's bound %v (%+v)", spec.Kind, i, n, r, bound, spec)
				}
				at, cursor = end, next
			}
		}
	}
}

// TestVideoAverageRateCountsFrameFloor checks the long-run rate a video
// reports. VideoSpec(50 bps) at 25 fps has mean frames of 1-6 bits, each
// floored at 8, so it plays 200 bit/s. Over generated specs whose mean
// frames straddle the floor, the reported rate lies within five standard
// errors of an hour-long trace's mean (over its whole GOPs, the GOP sums
// being independent samples), and a spec no frame of which can fall below
// the floor reports its nominal rate bit for bit.
func TestVideoAverageRateCountsFrameFloor(t *testing.T) {
	if got := VideoSpec(50*units.BitPerSecond, 1).AverageRate(); math.Abs(got.BitsPerSecond()-200) > 1e-9 {
		t.Errorf("VideoSpec(50 bps) reports %v, want the 200 bit/s its floored frames play", got)
	}
	rng := rand.New(rand.NewSource(3))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	floored := 0
	for i := 0; i < 200; i++ {
		spec := VideoSpec(units.BitPerSecond, rng.Uint64())
		spec.FrameRate = logUniform(1, 50)
		spec.GOPLength = 1 + rng.Intn(30)
		spec.IPDistance = 1 + rng.Intn(spec.GOPLength)
		spec.WeightI, spec.WeightP, spec.WeightB = logUniform(0.1, 10), logUniform(0.1, 10), logUniform(0.1, 10)
		if spec.Jitter = 0.999 * rng.Float64(); i%4 == 0 {
			spec.Jitter = 0
		}
		// Mean frames of 0.5-100 bits: some classes straddle the floor.
		spec.Rate = units.BitPerSecond.Scale(spec.FrameRate * logUniform(0.5, 100))
		got := spec.AverageRate()
		means := spec.meanFrameSizes()
		lifted := false
		for k := 0; k < spec.GOPLength; k++ {
			lifted = lifted || means[spec.classOf(k)].Scale(1-spec.Jitter) < 8
		}
		if !lifted {
			if got != spec.Rate {
				t.Errorf("spec %d (%+v): no frame is floored, yet it reports %v against its nominal %v", i, spec, got, spec.Rate)
			}
			continue
		}
		floored++
		frames, err := spec.TraceFrames(units.Hour)
		if err != nil {
			t.Fatal(err)
		}
		gops := len(frames) / spec.GOPLength
		var sum, sumSq float64
		for g := 0; g < gops; g++ {
			var bits float64
			for _, f := range frames[g*spec.GOPLength : (g+1)*spec.GOPLength] {
				bits += f.Size.Bits()
			}
			sum, sumSq = sum+bits, sumSq+bits*bits
		}
		gopDuration := float64(spec.GOPLength) / spec.FrameRate
		mean := sum / float64(gops)
		se := math.Sqrt(max(sumSq/float64(gops)-mean*mean, 0)/float64(gops-1)) / gopDuration
		if d := math.Abs(got.BitsPerSecond() - mean/gopDuration); d > 5*se+1e-9*mean/gopDuration {
			t.Errorf("spec %d (%+v): reports %v, the hour-long trace plays %.6g bit/s (standard error %.3g)",
				i, spec, got, mean/gopDuration, se)
		}
	}
	if floored < 50 {
		t.Errorf("only %d of 200 specs have floored frames; the floor is barely tested", floored)
	}
}

// TestSpecVideoHorizonFollowsDuration is the regression test for the
// fixed-60-second CLI horizon bug: the generated trace must cover the whole
// requested duration (here 5 minutes), not silently wrap a shorter window.
func TestSpecVideoHorizonFollowsDuration(t *testing.T) {
	spec := VideoSpec(1024*units.Kbps, 3)
	p, err := spec.Pattern(5 * units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	vp, ok := p.(*VideoRatePattern)
	if !ok {
		t.Fatalf("video spec built a %T, want *VideoRatePattern", p)
	}
	want := int(5 * 60 * 25) // 25 fps over 5 minutes
	if got := len(vp.Frames()); got != want {
		t.Errorf("trace holds %d frames, want %d covering the full 5 minutes", got, want)
	}
}

func TestSpecVideoHorizonCappedAndFloored(t *testing.T) {
	spec := VideoSpec(1024*units.Kbps, 3)
	// Beyond the cap the trace stops growing (the pattern wraps instead).
	long, err := spec.Pattern(2 * MaxTraceHorizon)
	if err != nil {
		t.Fatal(err)
	}
	capFrames := int(MaxTraceHorizon.Seconds() * 25)
	if got := len(long.(*VideoRatePattern).Frames()); got != capFrames {
		t.Errorf("capped trace holds %d frames, want %d", got, capFrames)
	}
	// A duration below one frame interval still yields a (wrapping) one-frame
	// trace instead of an error.
	short, err := spec.Pattern(units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(short.(*VideoRatePattern).Frames()); got != 1 {
		t.Errorf("sub-frame duration yielded %d frames, want 1", got)
	}
}

func TestSpecPatternKinds(t *testing.T) {
	rate := 1024 * units.Kbps
	for _, spec := range []StreamSpec{CBRSpec(rate), VBRSpec(rate, 3), VideoSpec(rate, 3)} {
		p, err := spec.Pattern(10 * units.Second)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		// The video trace's realized mean jitters around nominal.
		if vp, ok := p.(*VideoRatePattern); ok {
			if got := traceMean(vp); math.Abs(got.BitsPerSecond()-rate.BitsPerSecond())/rate.BitsPerSecond() > 0.05 {
				t.Errorf("video trace mean = %v, want near nominal %v", got, rate)
			}
		}
		rate, next, _ := p.Segment(units.Second, NoCursor)
		if !rate.Positive() {
			t.Errorf("%s rate at 1 s not positive", spec.Kind)
		}
		if next <= units.Second {
			t.Errorf("%s segment end %v does not advance", spec.Kind, next)
		}
	}
	if _, err := (StreamSpec{Kind: "chaos"}).Pattern(units.Second); err == nil {
		t.Error("unknown kind produced a pattern")
	}
}

// TestSpecVideoZeroJitterIsDeterministic locks in that an explicit zero
// jitter means "no jitter" — it must not fall back to the 20 % default, so
// every frame of a class has exactly its mean size.
func TestSpecVideoZeroJitterIsDeterministic(t *testing.T) {
	spec := VideoSpec(1024*units.Kbps, 5)
	spec.Jitter = 0
	frames, err := spec.TraceFrames(10 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[FrameClass]units.Size{}
	for _, f := range frames {
		if prev, ok := sizes[f.Class]; ok && prev != f.Size {
			t.Fatalf("jitter-free %v frames vary in size: %v vs %v", f.Class, prev, f.Size)
		}
		sizes[f.Class] = f.Size
	}
}

// TestGenerateTraceRejectsAbsurdFrameCounts locks in the generation bound:
// a horizon × frame-rate product in the billions must error, not overflow
// the float-to-int conversion or exhaust memory.
func TestGenerateTraceRejectsAbsurdFrameCounts(t *testing.T) {
	v := VideoSpec(1024*units.Kbps, 1)
	v.FrameRate = 1e9
	if _, err := v.TraceFrames(units.Hour); err == nil {
		t.Error("3.6e12-frame trace accepted")
	}
}

// TestVideoRatePatternWrapAround locks in the wrap-around semantics when
// the run outlives the generated trace: sampling beyond the horizon replays
// the trace from the start, frame boundaries keep advancing, and the
// long-run average is unchanged.
func TestVideoRatePatternWrapAround(t *testing.T) {
	horizon := 10 * units.Second
	p, err := VideoSpec(1024*units.Kbps, 3).Pattern(horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []units.Duration{0, units.Duration(3.7), units.Duration(9.96)} {
		for cycle := 1; cycle <= 3; cycle++ {
			wrapped := at.Add(horizon.Scale(float64(cycle)))
			if got, want := rateAt(p, wrapped), rateAt(p, at); got != want {
				t.Errorf("rate at %v = %v, want the first-cycle value %v", wrapped, got, want)
			}
		}
	}
	// Rate changes stay strictly advancing across the wrap itself.
	at, cursor := horizon.Sub(units.Millisecond), NoCursor
	for i := 0; i < 5; i++ {
		_, next, nextCursor := p.Segment(at, cursor)
		if next <= at {
			t.Fatalf("segment end %v did not advance past %v", next, at)
		}
		at, cursor = next, nextCursor
	}
}
