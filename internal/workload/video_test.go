package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"memstream/internal/units"
)

// appendTrace is the stored-trace reference for VideoRatePattern: it
// appends the frame sizes of the defaulted, validated video spec covering
// [0, horizon) to dst and returns the extended slice with its largest frame
// size. Frame i plays at i·interval in the class of GOP position
// i mod GOPLength, and its jitter is draw i of one generator the seed
// starts. The pattern stored these sizes until it computed each from the
// seed.
func (s StreamSpec) appendTrace(dst []units.Size, horizon units.Duration) ([]units.Size, units.Size, error) {
	if !horizon.Positive() {
		return nil, 0, errors.New("workload: horizon must be positive")
	}
	means := s.meanFrameSizes()
	rng := NewRng(s.Seed ^ 0x9e3779b97f4a7c15)
	if n := horizon.Seconds() * s.FrameRate; n > maxFrames {
		return nil, 0, fmt.Errorf("workload: trace of %.3g frames exceeds the %d-frame generation bound", n, maxFrames)
	}
	total := int(horizon.Seconds() * s.FrameRate)
	sizes := dst
	if sizes == nil {
		sizes = make([]units.Size, 0, total)
	}
	// k is the position in the GOP and m the position since its last anchor
	// (k mod IPDistance), so the loop classifies frames as classOf does
	// without a modulo per frame.
	gop, anchor, jitter := s.GOPLength, s.IPDistance, s.Jitter
	k, m := 0, 0
	var largest units.Size
	for idx := 0; idx < total; idx++ {
		class := FrameB
		switch {
		case k == 0:
			class = FrameI
		case m == 0:
			class = FrameP
		}
		// Symmetric jitter keeps the long-run mean on target.
		factor := 1 + jitter*(2*rng.Float64()-1)
		size := means[class].Scale(factor)
		if size < 8 {
			size = 8
		}
		if size > largest {
			largest = size
		}
		sizes = append(sizes, size)
		if k++; k == gop {
			k, m = 0, 0
		} else if m++; m == anchor {
			m = 0
		}
	}
	return sizes, largest, nil
}

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
	if _, err := newVideoRatePattern(v, 0); err == nil {
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

// advanceStored is Advance over a stored trace, as the pattern walked when it
// kept every frame's size: the frame playing at t drains at its rate to its
// end, each whole frame after it drains its size, and the frame the walk
// stops in drains at its rate.
func advanceStored(sizes []units.Size, fi, t, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	rate := func(i int) units.BitRate { return units.BitPerSecond.Scale(sizes[i].Bits() / fi.Seconds()) }
	j := segmentIndex(t, fi, NoCursor)
	i := j % len(sizes)
	e := fi.Scale(float64(j + 1)).Sub(t)
	drained := rate(i).Times(e)
	var elapsed units.Duration
	var bits units.Size
	for e < span && bits.Add(drained) < budget {
		elapsed, bits = e, bits.Add(drained)
		j++
		if i++; i == len(sizes) {
			i = 0
		}
		e, drained = fi.Scale(float64(j+1)).Sub(t), sizes[i]
	}
	elapsed, bits = stopIn(rate(i), elapsed, span, bits, budget)
	return elapsed, bits, segmentIndex(t.Add(elapsed), fi, j) + 1
}

// randomVideoSpec draws a video spec over the whole valid range: GOP 1-30
// and anchor distance 1-GOP, class weights in any order, jitter 0-0.999 (a
// quarter of the specs at 0), rates from 0.001 kbps, where every frame is
// floored at 8 bits, to 8 Mbps, and 1-1000 frames a second.
func randomVideoSpec(rng *rand.Rand) StreamSpec {
	s := VideoSpec(units.Kbps.Scale(math.Pow(10, -3+6.9*rng.Float64())), rng.Uint64())
	s.GOPLength = 1 + rng.IntN(30)
	s.IPDistance = 1 + rng.IntN(s.GOPLength)
	s.WeightI, s.WeightP, s.WeightB = 0.1+10*rng.Float64(), 0.1+10*rng.Float64(), 0.1+10*rng.Float64()
	s.Jitter = 0.999 * rng.Float64()
	if rng.IntN(4) == 0 {
		s.Jitter = 0
	}
	s.FrameRate = math.Pow(10, 3*rng.Float64())
	return s
}

// TestVideoMatchesStoredTrace checks the pattern, which computes each
// frame from its seed, against the trace appendTrace stores, bit for bit,
// over generated specs (see randomVideoSpec) and horizons of 1-3000 frames,
// some shorter than one GOP and most not a multiple of it: every frame of
// Frames, the peak (so the peak scan may stop early only where no frame it
// skips could be larger), Segment at shuffled times, with and without a
// cursor and past the horizon where the trace wraps, Advance from those
// times over any span and budget, and a walk that steps frame by frame as
// the engine does. Each spec is checked as built and after a Reset.
func TestVideoMatchesStoredTrace(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 2))
	inf := units.Size(math.Inf(1))
	for c := 0; c < 300; c++ {
		spec := randomVideoSpec(rng)
		frames := 1 + rng.IntN(3000)
		if c%5 == 0 {
			frames = 1 + rng.IntN(spec.GOPLength)
		}
		horizon := units.Second.Scale((float64(frames) + 0.999*rng.Float64()) / spec.FrameRate)
		built, err := spec.Pattern(horizon)
		if err != nil {
			t.Fatal(err)
		}
		p := built.(*VideoRatePattern)
		for _, seed := range []uint64{spec.Seed, rng.Uint64()} {
			if err := p.Reset(seed); err != nil {
				t.Fatal(err)
			}
			spec.Seed = seed
			ref := spec.withDefaults()
			sizes, largest, err := ref.appendTrace(nil, horizon)
			if err != nil {
				t.Fatal(err)
			}
			fi := units.Second.Scale(1 / ref.FrameRate)
			got := p.Frames()
			if len(got) != len(sizes) {
				t.Fatalf("%+v: %d frames, the stored trace %d", ref, len(got), len(sizes))
			}
			for i, f := range got {
				want := Frame{Index: i, Timestamp: fi.Scale(float64(i)), Class: ref.classOf(i % ref.GOPLength), Size: sizes[i]}
				if f != want {
					t.Fatalf("%+v: frame %d is %+v, the stored trace's %+v", ref, i, f, want)
				}
			}
			if want := units.BitPerSecond.Scale(largest.Bits() / fi.Seconds()); p.PeakRate() != want {
				t.Fatalf("%+v: peak %v, the stored trace's %v", ref, p.PeakRate(), want)
			}
			n := len(sizes)
			at := make([]units.Duration, 0, 60)
			for q := 0; q < 20; q++ {
				j := rng.IntN(3 * n)
				at = append(at, fi.Scale(float64(j)), fi.Scale(float64(j)+rng.Float64()), fi.Scale(float64(j+1)))
			}
			rng.Shuffle(len(at), func(a, b int) { at[a], at[b] = at[b], at[a] })
			cursor := NoCursor
			for q, t0 := range at {
				if q%3 == 0 {
					cursor = NoCursor
				}
				j := segmentIndex(t0, fi, NoCursor)
				wantRate := units.BitPerSecond.Scale(sizes[j%n].Bits() / fi.Seconds())
				rate, end, next := p.Segment(t0, cursor)
				if rate != wantRate || end != fi.Scale(float64(j+1)) || next != j+1 {
					t.Fatalf("%+v: Segment(%v, %d) = %v, %v, %d; stored %v, %v, %d",
						ref, t0, cursor, rate, end, next, wantRate, fi.Scale(float64(j+1)), j+1)
				}
				span := fi.Scale(float64(n) * 2 * rng.Float64())
				budget := inf
				if q%2 == 0 {
					budget = largest.Scale(float64(n) * rng.Float64())
				}
				if !span.Positive() || !budget.Positive() {
					continue
				}
				e, bits, after := p.Advance(t0, next-1+q%2, span, budget)
				we, wbits, wafter := advanceStored(sizes, fi, t0, span, budget)
				if e != we || bits != wbits || after != wafter {
					t.Fatalf("%+v: Advance(%v, %v, %v) = %v, %v, %d; stored %v, %v, %d",
						ref, t0, span, budget, e, bits, after, we, wbits, wafter)
				}
				cursor = after
			}
			// The engine's walk: each step resumes at the frame the last one
			// reached, so the pattern steps instead of dividing.
			t0, cursor := units.Duration(0), NoCursor
			for step := 0; step < 3*n && step < 3000; step++ {
				if _, end, next := p.Segment(t0, cursor); step%2 == 0 {
					t0, cursor = end, next
					continue
				}
				span := fi.Scale(3 * rng.Float64())
				if !span.Positive() {
					continue
				}
				e, bits, next := p.Advance(t0, cursor, span, inf)
				we, wbits, wnext := advanceStored(sizes, fi, t0, span, inf)
				if e != we || bits != wbits || next != wnext {
					t.Fatalf("%+v: walk at %v: Advance = %v, %v, %d; stored %v, %v, %d", ref, t0, e, bits, next, we, wbits, wnext)
				}
				t0, cursor = t0.Add(e), next
			}
		}
	}
}
