package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"memstream/internal/units"
)

// framePattern is a frame-accurate pattern with the geometry the exactness
// checks need: its frames, its horizon and where frame i of pass k starts.
type framePattern struct {
	Pattern
	frames  []Frame
	horizon units.Duration
	start   func(k, i int) units.Duration
}

// videoFrames builds the pattern of a video spec over the given horizon.
func videoFrames(t *testing.T, spec StreamSpec, horizon units.Duration) framePattern {
	t.Helper()
	p, err := spec.Pattern(horizon)
	if err != nil {
		t.Fatal(err)
	}
	v := p.(*VideoRatePattern)
	frames := v.Frames()
	n := len(frames)
	// Frame i of pass k is absolute frame k·n + i.
	start := func(k, i int) units.Duration { return v.frameInterval.Scale(float64(k*n + i)) }
	return framePattern{v, frames, v.horizon, start}
}

// traceFrames builds the pattern of a user trace.
func traceFrames(t *testing.T, frames []Frame) framePattern {
	t.Helper()
	spec := TraceSpec(frames)
	p, err := spec.Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tp := p.(*TracePattern)
	horizon := units.Second.Scale(tp.horizon)
	start := func(k, i int) units.Duration { return horizon.Scale(float64(k)).Add(frames[i].Timestamp) }
	return framePattern{tp, frames, horizon, start}
}

// exactnessPatterns are the frame-accurate patterns the exactness checks
// walk: generated video (the default GOP, GOP 15, zero jitter) and user
// traces (a single frame, uneven intervals).
func exactnessPatterns(t *testing.T) map[string]framePattern {
	gop15 := VideoSpec(1024*units.Kbps, 4)
	gop15.GOPLength = 15
	still := VideoSpec(2048*units.Kbps, 5)
	still.Jitter = 0
	uneven := []Frame{
		{Timestamp: 0, Size: 40_000},
		{Timestamp: units.Duration(0.013), Size: 12_000},
		{Timestamp: units.Duration(0.05), Size: 8_000},
		{Timestamp: units.Duration(0.21), Size: 30_000},
		{Timestamp: units.Duration(0.2101), Size: 500},
		{Timestamp: units.Duration(1.7), Size: 90_000},
	}
	generated, err := VideoSpec(1024*units.Kbps, 3).TraceFrames(units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]framePattern{
		"video/seed-1":       videoFrames(t, VideoSpec(1024*units.Kbps, 1), 10*units.Second),
		"video/seed-2":       videoFrames(t, VideoSpec(512*units.Kbps, 2), units.Minute),
		"video/gop-15":       videoFrames(t, gop15, 20*units.Second),
		"video/zero-jitter":  videoFrames(t, still, 10*units.Second),
		"trace/single-frame": traceFrames(t, []Frame{{Timestamp: 0, Size: 400}}),
		"trace/uneven":       traceFrames(t, uneven),
		"trace/generated":    traceFrames(t, generated),
	}
}

// TestSegmentWalkIntegratesFrames walks Segment from time zero over three
// passes of frame-accurate patterns, following the cursor as the engine
// does. Segment ends strictly increase, each pass integrates to the bits its
// frames hold (relative 1e-12), and a lookup without a cursor at the start
// of frame i in any pass plays frame i: the rate it returns is the one the
// first pass plays there.
func TestSegmentWalkIntegratesFrames(t *testing.T) {
	for name, fp := range exactnessPatterns(t) {
		var frameBits float64
		for _, f := range fp.frames {
			frameBits += f.Size.Bits()
		}
		firstPass := make([]units.BitRate, len(fp.frames))
		at, cursor := units.Duration(0), NoCursor
		for k := 0; k < 3; k++ {
			var bits float64
			for i := range fp.frames {
				if at != fp.start(k, i) {
					t.Fatalf("%s: pass %d frame %d starts at %v, want %v", name, k, i, at, fp.start(k, i))
				}
				rate, end, next := fp.Segment(at, cursor)
				if end <= at {
					t.Fatalf("%s: segment at %v ends at %v", name, at, end)
				}
				bits += rate.Times(end.Sub(at)).Bits()
				if k == 0 {
					firstPass[i] = rate
				} else if rate != firstPass[i] {
					t.Fatalf("%s: pass %d frame %d plays %v, the first pass %v", name, k, i, rate, firstPass[i])
				}
				if got, _, _ := fp.Segment(fp.start(k, i), NoCursor); got != rate {
					t.Fatalf("%s: lookup at pass %d frame %d plays %v, want %v", name, k, i, got, rate)
				}
				at, cursor = end, next
			}
			if rel := math.Abs(bits-frameBits) / frameBits; rel > 1e-12 {
				t.Errorf("%s: pass %d integrates %.17g bits, frames hold %.17g (rel %.2e)", name, k, bits, frameBits, rel)
			}
		}
		if want := fp.horizon.Scale(3); math.Abs(at.Seconds()-want.Seconds()) > 1e-9*want.Seconds() {
			t.Errorf("%s: three passes end at %v, want %v", name, at, want)
		}
	}
}

// TestQuickSegmentEndsAfterT checks Segment at arbitrary finite times from
// zero to 1e300 s: it never panics, the segment ends strictly after t, and
// the cursor is only a hint — any cursor gives the answer of a lookup
// without one wherever the frame index is exact (the far path beyond it
// keeps no cursor). Advance over one second from the same times covers at
// most that second and hands back the cursor Segment returns where it stops.
func TestQuickSegmentEndsAfterT(t *testing.T) {
	patterns := map[string]Pattern{}
	for name, fp := range exactnessPatterns(t) {
		patterns[name] = fp.Pattern
	}
	for name, frames := range map[string][]Frame{
		"trace/1e300-s":  {{Timestamp: 0, Size: 800}, {Timestamp: units.Duration(1e300), Size: 4000}, {Timestamp: units.Duration(2e300), Size: 100}},
		"trace/1e-300-s": {{Timestamp: 0, Size: 800}, {Timestamp: units.Duration(1e-300), Size: 4000}},
	} {
		p, err := NewTracePattern(frames)
		if err != nil {
			t.Fatal(err)
		}
		patterns[name] = p
	}
	cbr, err := CBRSpec(1024 * units.Kbps).Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	patterns["cbr"] = cbr
	vbr, err := VBRSpec(1024*units.Kbps, 9).Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	patterns["vbr"] = vbr
	f := func(mantissa uint32, exponent uint16, cursor int) bool {
		// t spans 1e-30 s to 4.3e300 s, and zero.
		at := units.Duration(float64(mantissa) * math.Pow(10, float64(exponent%331)-39))
		for name, p := range patterns {
			rate, end, _ := p.Segment(at, NoCursor)
			if !(end > at) || !(rate > 0) {
				t.Logf("%s at %v: rate %v, end %v", name, at, rate, end)
				return false
			}
			hinted, hintedEnd, _ := p.Segment(at, cursor)
			if !(hintedEnd > at) {
				t.Logf("%s at %v with cursor %d: end %v", name, at, cursor, hintedEnd)
				return false
			}
			if at < 1e9 && (hinted != rate || hintedEnd != end) {
				t.Logf("%s at %v: cursor %d gives (%v, %v), no cursor (%v, %v)", name, at, cursor, hinted, hintedEnd, rate, end)
				return false
			}
			elapsed, bits, next := p.Advance(at, cursor, units.Second, units.Size(1e5))
			if _, _, want := p.Segment(at.Add(elapsed), cursor); !(elapsed > 0 && elapsed <= units.Second && bits > 0) || next != want {
				t.Logf("%s at %v with cursor %d: Advance covers %v with %v, cursor %d where Segment gives %d", name, at, cursor, elapsed, bits, next, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickVBRSegmentsInAnyOrder checks that a VBR pattern answers any time
// in any order: a lookup without a cursor, at shuffled times inside the
// segments of an in-order walk over two minutes, returns the rate and end
// the walk saw there.
func TestQuickVBRSegmentsInAnyOrder(t *testing.T) {
	type seg struct {
		start, end units.Duration
		rate       units.BitRate
	}
	f := func(seed uint64, variability uint8, fractions []uint16, shuffle int64) bool {
		spec := VBRSpec(1024*units.Kbps, seed)
		spec.Variability = float64(variability%99) / 100
		spec.SegmentLength = units.Second.Scale(0.25 + float64(variability%7))
		walked, err := spec.Pattern(units.Hour)
		if err != nil {
			return false
		}
		var segs []seg
		at, cursor := units.Duration(0), NoCursor
		for at < 2*units.Minute {
			rate, end, next := walked.Segment(at, cursor)
			segs = append(segs, seg{at, end, rate})
			at, cursor = end, next
		}
		asked, err := spec.Pattern(units.Hour)
		if err != nil {
			return false
		}
		for n, i := range rand.New(rand.NewSource(shuffle)).Perm(len(segs)) {
			s, frac := segs[i], 0.5
			if len(fractions) > 0 {
				frac = float64(fractions[n%len(fractions)]) / (1 << 16)
			}
			at := s.start.Add(s.end.Sub(s.start).Scale(frac))
			if rate, end, _ := asked.Segment(at, NoCursor); rate != s.rate || end != s.end {
				t.Logf("seed %d: segment %d at %v plays (%v, %v), the walk (%v, %v)", seed, i, at, rate, end, s.rate, s.end)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
