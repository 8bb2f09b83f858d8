package workload

import (
	"errors"
	"fmt"

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
// actually occurs in the GOP (its mean at the top of the jitter band)
// consumed over one frame interval. Weights are arbitrary — nothing forces
// I frames to be the largest class — so the bound maximises over the
// occurring classes. The realized peak of a generated trace is at most this
// bound, so admission checks against it are conservative but never unsafe.
func (s StreamSpec) videoPeak() units.BitRate {
	means := s.meanFrameSizes()
	var largest units.Size
	for k := 0; k < s.GOPLength; k++ {
		if mean := means[s.classOf(k)]; mean > largest {
			largest = mean
		}
	}
	return units.BitPerSecond.Scale(largest.Scale(1+s.Jitter).Bits() * s.FrameRate)
}

// appendTrace appends the frame sequence of the defaulted, validated video
// spec covering [0, horizon) to dst and returns the extended slice. Passing
// a previous trace's slice truncated to zero length reuses its capacity, so
// seed-varied replicas regenerate their traces without steady-state
// allocations.
func (s StreamSpec) appendTrace(dst []Frame, horizon units.Duration) ([]Frame, error) {
	if !horizon.Positive() {
		return nil, errors.New("workload: horizon must be positive")
	}
	means := s.meanFrameSizes()
	rng := NewRng(s.Seed ^ 0x9e3779b97f4a7c15)
	frameInterval := units.Second.Scale(1 / s.FrameRate)
	// Defence against absurd horizon × frame-rate products: beyond this the
	// float-to-int conversion would overflow (or the allocation would take
	// the process down), so fail loudly instead.
	const maxFrames = 100_000_000
	if n := horizon.Seconds() * s.FrameRate; n > maxFrames {
		return nil, fmt.Errorf("workload: trace of %.3g frames exceeds the %d-frame generation bound", n, maxFrames)
	}
	total := int(horizon.Seconds() * s.FrameRate)
	frames := dst
	if frames == nil {
		frames = make([]Frame, 0, total)
	}
	for idx := 0; idx < total; idx++ {
		class := s.classOf(idx % s.GOPLength)
		// Symmetric jitter keeps the long-run mean on target.
		factor := 1 + s.Jitter*(2*rng.Float64()-1)
		size := means[class].Scale(factor)
		if size < 8 {
			size = 8
		}
		frames = append(frames, Frame{
			Index:     idx,
			Timestamp: frameInterval.Scale(float64(idx)),
			Class:     class,
			Size:      size,
		})
	}
	return frames, nil
}

// VideoRatePattern samples the instantaneous demand of a generated video
// trace: within each frame interval the rate is the frame size divided by
// the interval. StreamSpec.Pattern builds it for SpecVideo.
type VideoRatePattern struct {
	spec          StreamSpec // defaulted
	frames        []Frame
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
	frames, err := s.appendTrace(nil, horizon)
	if err != nil {
		return nil, err
	}
	if len(frames) == 0 {
		return nil, errors.New("workload: horizon too short for a single frame")
	}
	p := &VideoRatePattern{
		spec:          s,
		frames:        frames,
		frameInterval: units.Second.Scale(1 / s.FrameRate),
		horizon:       units.Second.Scale(float64(len(frames)) / s.FrameRate),
		genHorizon:    horizon,
	}
	p.rescanPeak()
	return p, nil
}

// rescanPeak recomputes the realized peak demand over the current trace.
func (p *VideoRatePattern) rescanPeak() {
	p.peak = 0
	for _, f := range p.frames {
		if !p.frameInterval.Positive() {
			continue
		}
		r := units.BitPerSecond.Scale(f.Size.Bits() / p.frameInterval.Seconds())
		if r > p.peak {
			p.peak = r
		}
	}
}

// Reset regenerates the trace in place for the spec re-seeded with seed,
// reusing the existing frame storage, so the pattern ends up exactly as
// StreamSpec.Pattern would build it for that seed — without allocating. It
// exists so batch replicas can reuse one pattern across seed-varied runs.
func (p *VideoRatePattern) Reset(seed uint64) error {
	p.spec.Seed = seed
	frames, err := p.spec.appendTrace(p.frames[:0], p.genHorizon)
	if err != nil {
		return err
	}
	p.frames = frames
	p.horizon = units.Second.Scale(float64(len(frames)) / p.spec.FrameRate)
	p.rescanPeak()
	return nil
}

// RateAt returns the demand in effect at time t.
func (p *VideoRatePattern) RateAt(t units.Duration) units.BitRate {
	if t < 0 {
		t = 0
	}
	wrapped := units.Second.Scale(mod(t.Seconds(), p.horizon.Seconds()))
	idx := int(wrapped.Seconds() / p.frameInterval.Seconds())
	if idx >= len(p.frames) {
		idx = len(p.frames) - 1
	}
	return units.BitPerSecond.Scale(p.frames[idx].Size.Bits() / p.frameInterval.Seconds())
}

// PeakRate returns the largest instantaneous demand of the trace.
func (p *VideoRatePattern) PeakRate() units.BitRate { return p.peak }

// NextRateChange returns the earliest time strictly after t at which RateAt
// may return a different value: the next frame boundary. Boundaries are
// multiples of the frame interval even across the wrap-around, so
// event-driven integrators can step frame by frame.
func (p *VideoRatePattern) NextRateChange(t units.Duration) units.Duration {
	if t < 0 {
		t = 0
	}
	return NextBoundary(t, p.frameInterval.Seconds())
}

// AverageRate returns the long-run average demand of the trace.
func (p *VideoRatePattern) AverageRate() units.BitRate {
	var total units.Size
	for _, f := range p.frames {
		total = total.Add(f.Size)
	}
	return units.BitPerSecond.Scale(total.Bits() / p.horizon.Seconds())
}

// Frames exposes the generated trace (for analyses and reports).
func (p *VideoRatePattern) Frames() []Frame { return p.frames }

func mod(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	m := a - b*float64(int(a/b))
	if m < 0 {
		m += b
	}
	return m
}
