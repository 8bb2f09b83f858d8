package workload

import (
	"errors"
	"fmt"
	"math"

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

// appendTrace appends the frame sizes of the defaulted, validated video
// spec covering [0, horizon) to dst and returns the extended slice with its
// largest frame size. Frame i plays at i·interval in the class of GOP
// position i mod GOPLength (see VideoRatePattern.Frames). Passing a previous
// trace's slice truncated to zero length reuses its capacity, so
// seed-varied replicas regenerate their traces without steady-state
// allocations.
func (s StreamSpec) appendTrace(dst []units.Size, horizon units.Duration) ([]units.Size, units.Size, error) {
	if !horizon.Positive() {
		return nil, 0, errors.New("workload: horizon must be positive")
	}
	means := s.meanFrameSizes()
	rng := NewRng(s.Seed ^ 0x9e3779b97f4a7c15)
	// Defence against absurd horizon × frame-rate products: beyond this the
	// float-to-int conversion would overflow (or the allocation would take
	// the process down), so fail loudly instead.
	const maxFrames = 100_000_000
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

// VideoRatePattern samples the instantaneous demand of a generated video
// trace: within each frame interval the rate is the frame size divided by
// the interval. StreamSpec.Pattern builds it for SpecVideo.
type VideoRatePattern struct {
	spec          StreamSpec   // defaulted
	sizes         []units.Size // each frame's encoded size; Frames rebuilds the rest
	frameInterval units.Duration
	horizon       units.Duration
	// genHorizon is the horizon the trace was requested for (the realized
	// horizon above is quantized to whole frames); Reset regenerates over it.
	genHorizon units.Duration
	peak       units.BitRate
}

// newVideoRatePattern builds a demand sampler for the defaulted, validated
// video spec covering the given horizon. The pattern repeats (wraps around)
// beyond the horizon, so simulations longer than the generated trace remain
// well defined.
func newVideoRatePattern(s StreamSpec, horizon units.Duration) (*VideoRatePattern, error) {
	p := &VideoRatePattern{
		spec:          s,
		frameInterval: units.Second.Scale(1 / s.FrameRate),
		genHorizon:    horizon,
	}
	if err := p.generate(nil); err != nil {
		return nil, err
	}
	if len(p.sizes) == 0 {
		return nil, errors.New("workload: horizon too short for a single frame")
	}
	return p, nil
}

// generate (re)builds the trace of the pattern's spec into dst, with its
// realized horizon and peak. The peak is the largest frame over one frame
// interval: division by the positive interval is monotone, so it equals the
// largest per-frame rate.
func (p *VideoRatePattern) generate(dst []units.Size) error {
	sizes, largest, err := p.spec.appendTrace(dst, p.genHorizon)
	if err != nil {
		return err
	}
	p.sizes = sizes
	p.horizon = units.Second.Scale(float64(len(sizes)) / p.spec.FrameRate)
	p.peak = units.BitPerSecond.Scale(largest.Bits() / p.frameInterval.Seconds())
	return nil
}

// Reset regenerates the trace in place for the spec re-seeded with seed,
// reusing the existing frame storage, so the pattern ends up exactly as
// StreamSpec.Pattern would build it for that seed — without allocating. It
// exists so batch replicas can reuse one pattern across seed-varied runs.
func (p *VideoRatePattern) Reset(seed uint64) error {
	p.spec.Seed = seed
	return p.generate(p.sizes[:0])
}

// Segment returns the demand of the frame playing at t, the end of that
// frame and the cursor for the next call. Absolute frame j covers
// [j·fi, (j+1)·fi) for the frame interval fi — the product Frame.Timestamp
// uses, so a dumped trace replays to the same boundaries — and plays
// sizes[j mod n], so the trace wraps around beyond its horizon. The
// returned cursor is j+1, the absolute index of the frame expected next.
func (p *VideoRatePattern) Segment(t units.Duration, cursor int) (units.BitRate, units.Duration, int) {
	fi := p.frameInterval
	j := segmentIndex(t, fi, cursor)
	if j < 0 {
		return p.farSegment(t)
	}
	return p.rate(j % len(p.sizes)), fi.Scale(float64(j + 1)), j + 1
}

// rate returns the demand of trace frame i: its size over the frame
// interval.
func (p *VideoRatePattern) rate(i int) units.BitRate {
	return units.BitPerSecond.Scale(p.sizes[i].Bits() / p.frameInterval.Seconds())
}

// Advance walks the frames from the one playing at t: that frame drains at
// its rate to its end, each whole frame after it drains its size in one add,
// and the frame the walk stops in drains at its rate.
func (p *VideoRatePattern) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	fi, n := p.frameInterval, len(p.sizes)
	j := segmentIndex(t, fi, cursor)
	if j < 0 || !(t.Add(span) < fi.Scale(maxFrameIndex)) {
		return walkSegments(p, t, cursor, span, budget)
	}
	i := j % n
	e := fi.Scale(float64(j + 1)).Sub(t) // the walk's elapsed time at frame j's end
	drained := p.rate(i).Times(e)
	var elapsed units.Duration
	var bits units.Size
	for e < span && bits.Add(drained) < budget {
		elapsed, bits = e, bits.Add(drained)
		j++
		if i++; i == n {
			i = 0
		}
		e, drained = fi.Scale(float64(j+1)).Sub(t), p.sizes[i]
	}
	elapsed, bits = stopIn(p.rate(i), elapsed, span, bits, budget)
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
		i = min(int(x), len(p.sizes)-1)
	}
	for i > 0 && fi*float64(i) > w {
		i--
	}
	return p.rate(i), farEnd(t, w, fi*float64(i+1)), NoCursor
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
// pattern keeps only the frame sizes, so each call allocates a fresh slice.
func (p *VideoRatePattern) Frames() []Frame {
	frames := make([]Frame, len(p.sizes))
	for i, size := range p.sizes {
		frames[i] = Frame{
			Index:     i,
			Timestamp: p.frameInterval.Scale(float64(i)),
			Class:     p.spec.classOf(i % p.spec.GOPLength),
			Size:      size,
		}
	}
	return frames
}
