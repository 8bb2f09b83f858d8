package workload

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"memstream/internal/units"
)

// FrameClass is the coding class of a video frame.
type FrameClass int

// Video frame classes in an MPEG-style group of pictures.
const (
	// FrameI is an intra-coded frame (largest).
	FrameI FrameClass = iota
	// FrameP is a predicted frame.
	FrameP
	// FrameB is a bidirectionally predicted frame (smallest).
	FrameB
)

// String names the frame class.
func (c FrameClass) String() string {
	switch c {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameClass(%d)", int(c))
	}
}

// Frame is one encoded video frame of a trace.
type Frame struct {
	// Index is the display order of the frame.
	Index int
	// Timestamp is the frame's display time.
	Timestamp units.Duration
	// Class is the coding class.
	Class FrameClass
	// Size is the encoded frame size.
	Size units.Size
}

// classOf returns the coding class of the frame at the given position within
// a GOP of the defaulted video spec (position 0 is the I frame; every
// IPDistance-th frame is an anchor).
func (s StreamSpec) classOf(positionInGOP int) FrameClass {
	if positionInGOP == 0 {
		return FrameI
	}
	if positionInGOP%s.IPDistance == 0 {
		return FrameP
	}
	return FrameB
}

// meanFrameSizes returns the mean encoded size of each frame class, indexed
// by FrameClass, such that the long-run average rate of the defaulted video
// spec equals its nominal rate.
func (s StreamSpec) meanFrameSizes() [3]units.Size {
	var count [3]float64
	for k := 0; k < s.GOPLength; k++ {
		count[s.classOf(k)]++
	}
	gopDuration := float64(s.GOPLength) / s.FrameRate
	gopBits := s.Rate.BitsPerSecond() * gopDuration
	unit := gopBits / (count[FrameI]*s.WeightI + count[FrameP]*s.WeightP + count[FrameB]*s.WeightB)
	return [3]units.Size{units.Bit.Scale(unit * s.WeightI), units.Bit.Scale(unit * s.WeightP), units.Bit.Scale(unit * s.WeightB)}
}

// videoPeak bounds the largest instantaneous demand any trace generated from
// the defaulted video spec can reach: the largest frame of any class that
// actually occurs in the GOP (its mean at the top of the jitter band, or the
// 8-bit floor every generated frame gets, whichever is larger) consumed over
// one frame interval. Weights are arbitrary — nothing forces I frames to be
// the largest class — so the bound maximises over the occurring classes. It
// divides by the frame interval as the generated pattern does for its own
// peak, so no realized rate exceeds it, not even in the last bit: a stream
// admitted against it never plays at or above the media rate.
func (s StreamSpec) videoPeak() units.BitRate {
	means := s.meanFrameSizes()
	var largest units.Size
	for k := 0; k < s.GOPLength; k++ {
		if mean := means[s.classOf(k)]; mean > largest {
			largest = mean
		}
	}
	largest = max(largest.Scale(1+s.Jitter), 8)
	return units.BitPerSecond.Scale(largest.Bits() / units.Second.Scale(1/s.FrameRate).Seconds())
}

// videoAverage returns the long-run rate of the defaulted video spec. That
// is its nominal rate unless some class in the GOP can fall below the 8-bit
// frame floor; then each GOP position plays E[max(8, m·(1 + Jitter·X))]
// bits for its class mean m and X uniform on [−1, 1), and the rate is
// their sum over the GOP's duration. With a = m(1 − Jitter) and
// b = m(1 + Jitter) that expectation is m where a ≥ 8, 8 where b ≤ 8, and
// (8·(8 − a) + (b² − 64)/2)/(b − a) in between.
func (s StreamSpec) videoAverage() units.BitRate {
	means := s.meanFrameSizes()
	var bits float64
	floored := false
	for k := 0; k < s.GOPLength; k++ {
		m := means[s.classOf(k)].Bits()
		a, b := m*(1-s.Jitter), m*(1+s.Jitter)
		switch {
		case !(a < 8):
			bits += m
		case b <= 8:
			bits, floored = bits+8, true
		default:
			bits, floored = bits+(8*(8-a)+(b*b-64)/2)/(b-a), true
		}
	}
	if !floored {
		return s.Rate
	}
	return units.BitPerSecond.Scale(bits / (float64(s.GOPLength) / s.FrameRate))
}

// maxFrames bounds a generated trace, so the peak scan and the float-to-int
// conversion of the frame count stay finite.
const maxFrames = 100_000_000

// VideoRatePattern samples the instantaneous demand of a generated video
// trace: within each frame interval the rate is the frame size divided by
// the interval. StreamSpec.Pattern builds it for SpecVideo. It stores no
// frame, since frame i's size is a function of the seed and i. Segment and
// Advance remember the frame they located last, so a pattern serves one run
// at a time; every simulator builds its own.
type VideoRatePattern struct {
	spec          StreamSpec    // defaulted
	means         [3]units.Size // each class's mean frame size, by FrameClass
	n             int           // frames in the trace
	frameInterval units.Duration
	horizon       units.Duration // n frame intervals
	peak          units.BitRate
	// at is the frame Segment or Advance located last: the frame after it
	// is one step away, with no division.
	at videoFrame
}

// videoFrame places absolute frame j: it plays trace frame i = j mod n, at
// GOP position k = i mod GOPLength, m = k mod IPDistance after its anchor.
type videoFrame struct {
	j, i, k, m int
	size       units.Size
}

// nextFrame places the frame after (i, k, m) in a trace of n frames, and
// classifies it as classOf does, by counting instead of by modulo.
func nextFrame(i, k, m, n, gop, anchor int) (int, int, int, FrameClass) {
	switch {
	case i+1 == n:
		return 0, 0, 0, FrameI
	case k+1 == gop:
		return i + 1, 0, 0, FrameI
	case m+1 == anchor:
		return i + 1, k + 1, 0, FrameP
	}
	return i + 1, k + 1, m + 1, FrameB
}

// newVideoRatePattern builds a demand sampler for the defaulted, validated
// video spec covering the given horizon. The pattern repeats (wraps around)
// beyond the horizon, so simulations longer than the generated trace remain
// well defined.
func newVideoRatePattern(s StreamSpec, horizon units.Duration) (*VideoRatePattern, error) {
	if !horizon.Positive() {
		return nil, errors.New("workload: horizon must be positive")
	}
	if n := horizon.Seconds() * s.FrameRate; n > maxFrames {
		return nil, fmt.Errorf("workload: trace of %.3g frames exceeds the %d-frame generation bound", n, maxFrames)
	}
	n := int(horizon.Seconds() * s.FrameRate)
	if n == 0 {
		return nil, errors.New("workload: horizon too short for a single frame")
	}
	p := &VideoRatePattern{
		spec:          s,
		means:         s.meanFrameSizes(),
		n:             n,
		frameInterval: units.Second.Scale(1 / s.FrameRate),
		horizon:       units.Second.Scale(float64(n) / s.FrameRate),
	}
	return p, p.Reset(s.Seed)
}

// Reset re-seeds the pattern in place, so it plays exactly the trace
// StreamSpec.Pattern would build for that seed, and finds the trace's peak,
// its largest frame over one frame interval. It never fails and does not
// allocate.
func (p *VideoRatePattern) Reset(seed uint64) error {
	p.spec.Seed = seed
	p.peak = p.rate(p.largestFrame())
	p.at = videoFrame{size: p.size(0, FrameI)}
	return nil
}

// largestFrame returns the trace's largest frame. No frame of class c
// exceeds max(means[c]·(1 + Jitter), 8), because 1 + Jitter·(2u − 1) never
// exceeds 1 + Jitter in floating point and rounding is monotone. So each
// class is scanned over its GOP positions with stride GOPLength, and the
// scan stops once the largest frame reaches the bound of every class left.
// With the default spec every I frame is larger than any P frame can be,
// so only the I frames are drawn.
func (p *VideoRatePattern) largestFrame() units.Size {
	s := p.spec
	var bound [3]units.Size
	for c, mean := range p.means {
		bound[c] = max(mean.Scale(1+s.Jitter), 8)
	}
	var largest units.Size
	for c := range bound {
		if largest >= slices.Max(bound[c:]) {
			break
		}
		for k := 0; k < min(s.GOPLength, p.n); k++ {
			if s.classOf(k) != FrameClass(c) {
				continue
			}
			for i := k; i < p.n; i += s.GOPLength {
				if size := p.size(i, FrameClass(c)); size > largest {
					largest = size
				}
			}
		}
	}
	return largest
}

// size returns the encoded size of trace frame i of the given class. Its
// jitter is draw i of the SplitMix64 sequence the spec's seed starts,
// computed from the state after i draws (the seed plus i increments, as
// RatePattern.segmentRate computes its segments); symmetric jitter keeps
// the long-run mean on target, and no frame falls below 8 bits.
func (p *VideoRatePattern) size(i int, class FrameClass) units.Size {
	r := Rng{state: (p.spec.Seed ^ goldenGamma) + uint64(i)*goldenGamma}
	if size := p.means[class].Scale(1 + p.spec.Jitter*(2*r.Float64()-1)); !(size < 8) {
		return size
	}
	return 8
}

// rate returns the demand of a frame of the given size: the size over the
// frame interval.
func (p *VideoRatePattern) rate(size units.Size) units.BitRate {
	return units.BitPerSecond.Scale(size.Bits() / p.frameInterval.Seconds())
}

// locate places absolute frame j, with its size, and remembers it. The
// frame after the one located last is a step away; any other frame takes
// the only modulos.
func (p *VideoRatePattern) locate(j int) videoFrame {
	f := p.at
	if j == f.j {
		return f
	}
	var class FrameClass
	if j == f.j+1 {
		f.i, f.k, f.m, class = nextFrame(f.i, f.k, f.m, p.n, p.spec.GOPLength, p.spec.IPDistance)
	} else {
		f.i = j % p.n
		f.k = f.i % p.spec.GOPLength
		f.m = f.k % p.spec.IPDistance
		class = p.spec.classOf(f.k)
	}
	f.j, f.size = j, p.size(f.i, class)
	p.at = f
	return f
}

// Segment returns the demand of the frame playing at t, the end of that
// frame and the cursor for the next call. Absolute frame j covers
// [j·fi, (j+1)·fi) for the frame interval fi — the product Frame.Timestamp
// uses, so a dumped trace replays to the same boundaries — and plays trace
// frame j mod n, so the trace wraps around beyond its horizon. The
// returned cursor is j+1, the absolute index of the frame expected next.
func (p *VideoRatePattern) Segment(t units.Duration, cursor int) (units.BitRate, units.Duration, int) {
	fi := p.frameInterval
	j := segmentIndex(t, fi, cursor)
	if j < 0 {
		return p.farSegment(t)
	}
	return p.rate(p.locate(j).size), fi.Scale(float64(j + 1)), j + 1
}

// Advance walks the frames from the one playing at t: that frame drains at
// its rate to its end, each whole frame after it drains its size in one add,
// and the frame the walk stops in drains at its rate. The walk steps the
// frame's place and its generator state by addition, with the spec in
// locals, so a frame costs no call and no division.
func (p *VideoRatePattern) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	fi := p.frameInterval
	j := segmentIndex(t, fi, cursor)
	if j < 0 || !(t.Add(span) < fi.Scale(maxFrameIndex)) {
		return walkSegments(p, t, cursor, span, budget)
	}
	f := p.locate(j)
	i, k, m, size := f.i, f.k, f.m, f.size
	e := fi.Scale(float64(j + 1)).Sub(t) // the walk's elapsed time at frame j's end
	drained := p.rate(size).Times(e)
	n, gop, anchor, means, jitter := p.n, p.spec.GOPLength, p.spec.IPDistance, p.means, p.spec.Jitter
	base := p.spec.Seed ^ goldenGamma
	state := base + uint64(i)*goldenGamma
	var elapsed units.Duration
	var bits units.Size
	for e < span && bits.Add(drained) < budget {
		elapsed, bits = e, bits.Add(drained)
		j++
		var class FrameClass
		if i, k, m, class = nextFrame(i, k, m, n, gop, anchor); i == 0 {
			state = base
		} else {
			state += goldenGamma
		}
		r := Rng{state: state}
		if size = means[class].Scale(1 + jitter*(2*r.Float64()-1)); size < 8 {
			size = 8
		}
		e, drained = fi.Scale(float64(j+1)).Sub(t), size
	}
	p.at = videoFrame{j, i, k, m, size}
	elapsed, bits = stopIn(p.rate(size), elapsed, span, bits, budget)
	return elapsed, bits, segmentIndex(t.Add(elapsed), fi, j) + 1
}

// segmentIndex returns the index j of the segment [j·width, (j+1)·width)
// holding t, or -1 beyond maxFrameIndex segments. A cursor names the segment
// after the one it was returned for, so the segment hint names and the one
// before it are tried first.
func segmentIndex(t, width units.Duration, hint int) int {
	for j := hint; j >= max(hint-1, 0); j-- {
		if j < maxFrameIndex && width.Scale(float64(j)) <= t && t < width.Scale(float64(j+1)) {
			return j
		}
	}
	// Neither holds t: the quotient is within one segment either way.
	q := t.Seconds() / width.Seconds()
	if !(q < maxFrameIndex) {
		return -1
	}
	j := int(math.Max(q, 0))
	for j > 0 && width.Scale(float64(j)) > t {
		j--
	}
	for width.Scale(float64(j+1)) <= t {
		j++
	}
	return j
}

// farSegment answers Segment beyond maxFrameIndex frames: the frame comes
// from the exact remainder of t over the horizon, and no cursor is kept.
func (p *VideoRatePattern) farSegment(t units.Duration) (units.BitRate, units.Duration, int) {
	fi := p.frameInterval.Seconds()
	w := math.Mod(t.Seconds(), p.horizon.Seconds())
	i := 0
	if x := w / fi; x > 0 {
		i = min(int(x), p.n-1)
	}
	for i > 0 && fi*float64(i) > w {
		i--
	}
	return p.rate(p.size(i, p.spec.classOf(i%p.spec.GOPLength))), farEnd(t, w, fi*float64(i+1)), NoCursor
}

// maxFrameIndex bounds the absolute frame indices patterns compute: below
// it, products j·interval stay strictly increasing in j and j·n does not
// overflow int. Times beyond it (hundreds of thousands of years of 25 fps
// video) fall back to a lookup from the remainder over the horizon.
const maxFrameIndex = 1 << 50

// farEnd returns where the frame holding t ends, given t's offset w into
// the wrapped trace and the frame's end frameEnd on the same scale. Where
// float arithmetic cannot place that end after t (the frame is shorter than
// t's precision), it is the next representable time, so an integrator
// always advances.
func farEnd(t units.Duration, w, frameEnd float64) units.Duration {
	s := t.Seconds()
	end := s + (frameEnd - w)
	if !(end > s) {
		end = math.Nextafter(s, math.Inf(1))
	}
	return units.Second.Scale(end)
}

// PeakRate returns the largest instantaneous demand of the trace.
func (p *VideoRatePattern) PeakRate() units.BitRate { return p.peak }

// Frames returns the generated trace (for analyses and reports). The
// pattern stores no frame, so each call computes the sizes from the seed
// into a fresh slice.
func (p *VideoRatePattern) Frames() []Frame {
	frames := make([]Frame, p.n)
	for i := range frames {
		class := p.spec.classOf(i % p.spec.GOPLength)
		frames[i] = Frame{
			Index:     i,
			Timestamp: p.frameInterval.Scale(float64(i)),
			Class:     class,
			Size:      p.size(i, class),
		}
	}
	return frames
}
