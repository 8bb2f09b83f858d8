package workload

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/units"
)

// SpecKind names a stream workload family. The string values are the wire
// and CLI spellings ("stream": "video", memssim -stream video), so every
// layer agrees on one vocabulary.
type SpecKind string

// The built-in workload kinds.
const (
	// SpecCBR is a constant-bit-rate stream.
	SpecCBR SpecKind = "cbr"
	// SpecVBR is the segment-wise variable-bit-rate stream.
	SpecVBR SpecKind = "vbr"
	// SpecVideo is the MPEG-like frame-accurate video trace, generated from
	// a GOP structure.
	SpecVideo SpecKind = "video"
	// SpecTrace is a user-supplied frame trace.
	SpecTrace SpecKind = "trace"
)

// specKinds lists the valid kinds for error messages.
const specKinds = `"cbr", "vbr", "video" or "trace"`

// MaxTraceHorizon caps the length of a generated video trace. A simulation
// longer than the cap replays the trace from the start (the wrap-around is
// explicit in the pattern, not an accident of a fixed generation window), so
// memory per run stays bounded while every run shorter than the cap sees a
// trace covering its full duration.
const MaxTraceHorizon = units.Hour

// Pattern is piecewise-constant stream demand, read one constant segment at
// a time, so event-driven integrators step exactly from change to change, or
// integrated across whole segments at once, so an integrator that only needs
// the total over a span takes one step. RatePattern, VideoRatePattern and
// TracePattern all implement it.
type Pattern interface {
	// PeakRate returns the largest demand the pattern can produce.
	PeakRate() units.BitRate
	// Segment returns the demand in effect at time t ≥ 0, the end of the
	// constant-demand segment holding t (strictly after t; +Inf for a
	// constant pattern) and the cursor to pass with the next call. The
	// cursor is only a hint: NoCursor makes the pattern search from
	// scratch, and the returned cursor makes a later call within the same
	// segment or the next one O(1), so a clock that advances segment by
	// segment never searches.
	Segment(t units.Duration, cursor int) (rate units.BitRate, end units.Duration, next int)
	// Advance integrates the demand forward from t ≥ 0 across whole
	// segments. It stops after span, or inside the segment where the
	// drained bits reach budget, solved at that segment's rate; a
	// zero-demand segment never stops it. It returns the time covered
	// (never more than span, and exactly span when span stops it), the
	// bits drained and the cursor Segment(t+elapsed, cursor) returns.
	// cursor is the one Segment returned for t, or NoCursor, and is only a
	// hint. A walk that stops in t's own segment covers exactly
	// min(span, budget/rate) and drains rate × elapsed, the arithmetic of a
	// single integration step. span and budget must be positive.
	Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (elapsed units.Duration, bits units.Size, next int)
	// Reset rewinds the pattern in place, without allocating, to the state
	// StreamSpec.Pattern builds for the same spec re-seeded with seed, so
	// batch replicas can reuse one pattern across seed-varied runs.
	Reset(seed uint64) error
}

// StreamSpec is the one stream description shared by every layer: the
// simulator consumes it directly, the service parses requests into it and
// the CLI builds it from flags. Exactly one workload family is active,
// selected by Kind; the other families' fields are ignored.
type StreamSpec struct {
	// Kind selects the workload family.
	Kind SpecKind
	// Rate is the nominal (long-run average) stream rate. Ignored for
	// SpecTrace, where the rate is derived from the frames.
	Rate units.BitRate
	// WriteFraction is the share of the stream written to the device
	// (recording); the rest is read (playback).
	WriteFraction float64
	// Seed makes the stochastic kinds (vbr, video) reproducible.
	Seed uint64

	// SegmentLength and Variability parameterise SpecVBR: the rate holds
	// for one segment, uniform in Rate*(1 ± Variability). Zero values take
	// the VBRSpec defaults (two-second segments, ±30 %).
	SegmentLength units.Duration
	Variability   float64

	// FrameRate (frames per second), GOPLength (N, frames per group of
	// pictures), IPDistance (M, the spacing of I/P anchor frames), the
	// relative class sizes WeightI:WeightP:WeightB and Jitter (the relative
	// half-range of each frame's size) parameterise SpecVideo. Zero values
	// of the first six take the VideoSpec defaults (25 fps, N=12, M=3, 5:3:1
	// weights); Jitter is taken verbatim, because zero is a meaningful value
	// there (a deterministic trace) — the VideoSpec constructor seeds the
	// 20 % default.
	FrameRate  float64
	GOPLength  int
	IPDistance int
	WeightI    float64
	WeightP    float64
	WeightB    float64
	Jitter     float64

	// Frames is the user-supplied trace of SpecTrace, with timestamps
	// starting at zero and strictly increasing (ParseFrames and
	// NormalizeFrames produce this form).
	Frames []Frame

	// trace memoizes the pattern over Frames. The TraceSpec constructor
	// fills it so validation, rate bounds and the simulator share one
	// O(frames) construction (the pattern is read-only after construction
	// and safe to share, unlike the VBR and video patterns, which Reset
	// re-seeds in place); hand-built specs leave it nil and fall back to
	// building per use.
	trace *TracePattern
}

// CBRSpec returns a constant-bit-rate spec at the given rate with the
// Table I write share.
func CBRSpec(rate units.BitRate) StreamSpec {
	return StreamSpec{Kind: SpecCBR, Rate: rate, WriteFraction: 0.4}
}

// VBRSpec returns a variable-bit-rate spec with the Table I write share and
// two-second segments varying ±30 %, as compressed video does scene by scene.
func VBRSpec(rate units.BitRate, seed uint64) StreamSpec {
	return StreamSpec{
		Kind:          SpecVBR,
		Rate:          rate,
		WriteFraction: 0.4,
		Seed:          seed,
		SegmentLength: 2 * units.Second,
		Variability:   0.3,
	}
}

// VideoSpec returns an MPEG-like video spec with the Table I write share: a
// 12-frame GOP (IBBPBBPBBPBB) at 25 frames per second, 5:3:1 frame weights
// and 20 % size jitter.
func VideoSpec(rate units.BitRate, seed uint64) StreamSpec {
	return StreamSpec{
		Kind:          SpecVideo,
		Rate:          rate,
		WriteFraction: 0.4,
		Seed:          seed,
		FrameRate:     25,
		GOPLength:     12,
		IPDistance:    3,
		WeightI:       5,
		WeightP:       3,
		WeightB:       1,
		Jitter:        0.2,
	}
}

// TraceSpec returns a spec replaying the given frames with the Table I
// write share. The frames should be in NormalizeFrames form (Validate
// reports them otherwise) and must not be mutated afterwards: the spec
// builds its demand pattern over them once, here.
func TraceSpec(frames []Frame) StreamSpec {
	s := StreamSpec{Kind: SpecTrace, WriteFraction: 0.4, Frames: frames}
	if p, err := NewTracePattern(frames); err == nil {
		s.trace = p
	}
	return s
}

// tracePattern returns the memoized pattern over Frames, building it on
// demand for hand-constructed specs.
func (s StreamSpec) tracePattern() (*TracePattern, error) {
	if s.trace != nil {
		return s.trace, nil
	}
	return NewTracePattern(s.Frames)
}

// withDefaults fills the zero-valued VBR and video parameters from the
// VBRSpec and VideoSpec defaults. Any other value, negative or NaN included,
// is kept for Validate to judge. Jitter is taken verbatim (see StreamSpec).
func (s StreamSpec) withDefaults() StreamSpec {
	switch s.Kind {
	case SpecVBR:
		d := VBRSpec(s.Rate, s.Seed)
		s.SegmentLength = zeroOr(s.SegmentLength, d.SegmentLength)
		s.Variability = zeroOr(s.Variability, d.Variability)
	case SpecVideo:
		d := VideoSpec(s.Rate, s.Seed)
		s.FrameRate = zeroOr(s.FrameRate, d.FrameRate)
		s.GOPLength = zeroOr(s.GOPLength, d.GOPLength)
		s.IPDistance = zeroOr(s.IPDistance, d.IPDistance)
		s.WeightI = zeroOr(s.WeightI, d.WeightI)
		s.WeightP = zeroOr(s.WeightP, d.WeightP)
		s.WeightB = zeroOr(s.WeightB, d.WeightB)
	}
	return s
}

// zeroOr returns def if v is zero and v otherwise.
func zeroOr[T ~int | ~float64](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// finitePositive reports whether v lies in (0, +Inf); NaN fails.
func finitePositive(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// errWriteFraction reports a write share outside [0, 1] for every kind.
var errWriteFraction = errors.New("workload: write fraction must be in [0, 1]")

// Validate checks the spec for its active family, once zero-valued VBR and
// video parameters have taken their defaults. Every range check fails on
// NaN.
func (s StreamSpec) Validate() error {
	s = s.withDefaults()
	var errs []error
	writeOK := s.WriteFraction >= 0 && s.WriteFraction <= 1
	switch s.Kind {
	case SpecCBR, SpecVBR:
		if !s.Rate.Positive() {
			errs = append(errs, errors.New("workload: nominal rate must be positive"))
		}
		if !writeOK {
			errs = append(errs, errWriteFraction)
		}
		if s.Kind == SpecVBR {
			if !s.SegmentLength.Positive() {
				errs = append(errs, errors.New("workload: VBR streams need a positive segment length"))
			}
			if !(s.Variability >= 0 && s.Variability < 1) {
				errs = append(errs, errors.New("workload: variability must be in [0, 1)"))
			}
		}
	case SpecVideo:
		if !s.Rate.Positive() {
			errs = append(errs, errors.New("workload: video nominal rate must be positive"))
		}
		if !(s.FrameRate > 0) {
			errs = append(errs, errors.New("workload: frame rate must be positive"))
		}
		if s.GOPLength < 1 {
			errs = append(errs, errors.New("workload: GOP length must be at least 1"))
		}
		if s.IPDistance < 1 || s.IPDistance > s.GOPLength {
			errs = append(errs, errors.New("workload: anchor distance must be in [1, GOP length]"))
		}
		if !(finitePositive(s.WeightI) && finitePositive(s.WeightP) && finitePositive(s.WeightB)) {
			errs = append(errs, errors.New("workload: frame weights must be positive"))
		}
		if !(s.Jitter >= 0 && s.Jitter < 1) {
			errs = append(errs, errors.New("workload: jitter must be in [0, 1)"))
		}
		if !writeOK {
			errs = append(errs, errWriteFraction)
		}
	case SpecTrace:
		if !writeOK {
			errs = append(errs, errWriteFraction)
		}
		if err := ValidateFrames(s.Frames); err != nil {
			errs = append(errs, err)
		}
	default:
		return fmt.Errorf("workload: unknown stream kind %q (want %s)", string(s.Kind), specKinds)
	}
	return errors.Join(errs...)
}

// RateBounds returns the long-run average and the largest instantaneous
// demand the spec can produce in one pass: nominal and nominal for CBR,
// nominal and the top of the variability band for VBR, for video the
// nominal rate (or, where the 8-bit frame floor lifts some frames, the rate
// the floored frames play) and the largest possible frame over one frame
// interval, and the trace's own mean and largest frame for SpecTrace (built
// once — the trace scan is O(frames)). Buffer provisioning and media-rate
// admission check against the peak; it bounds the realized pattern peak
// from above.
func (s StreamSpec) RateBounds() (average, peak units.BitRate) {
	switch s.Kind {
	case SpecVBR:
		return s.Rate, s.Rate.Scale(1 + s.withDefaults().Variability)
	case SpecVideo:
		d := s.withDefaults()
		return d.videoAverage(), d.videoPeak()
	case SpecTrace:
		p, err := s.tracePattern()
		if err != nil {
			return 0, 0
		}
		return p.AverageRate(), p.PeakRate()
	default:
		return s.Rate, s.Rate
	}
}

// PeakRate bounds the largest instantaneous demand the spec can produce.
func (s StreamSpec) PeakRate() units.BitRate {
	_, peak := s.RateBounds()
	return peak
}

// AverageRate returns the long-run average demand: the nominal rate for the
// generated kinds (for video, counting the 8-bit frame floor), the trace
// mean for SpecTrace.
func (s StreamSpec) AverageRate() units.BitRate {
	average, _ := s.RateBounds()
	return average
}

// TraceFrames returns the frame trace a run of the given duration would
// replay: the generated video trace (same horizon derivation as Pattern) or
// the user-supplied frames. CBR and VBR streams have no frame
// representation and return an error.
func (s StreamSpec) TraceFrames(duration units.Duration) ([]Frame, error) {
	p, err := s.Pattern(duration)
	if err != nil {
		return nil, err
	}
	switch t := p.(type) {
	case *VideoRatePattern:
		return t.Frames(), nil
	case *TracePattern:
		return t.Frames(), nil
	}
	return nil, fmt.Errorf("workload: %q streams have no frame trace", string(s.Kind))
}

// Pattern validates the spec and builds the demand sampler for a run of the
// given duration. For SpecVideo the trace horizon is the duration itself,
// capped at MaxTraceHorizon and floored at one frame interval; runs beyond
// the generated horizon wrap around explicitly (VideoRatePattern and
// TracePattern both replay from the start). CBR and VBR patterns are
// unbounded and need no horizon.
func (s StreamSpec) Pattern(duration units.Duration) (Pattern, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	switch s.Kind {
	case SpecCBR, SpecVBR:
		return newRatePattern(s), nil
	case SpecVideo:
		horizon := duration
		if horizon > MaxTraceHorizon {
			horizon = MaxTraceHorizon
		}
		if interval := units.Second.Scale(1 / s.FrameRate); horizon < interval {
			horizon = interval
		}
		return newVideoRatePattern(s, horizon)
	}
	// Validate admits no other kind.
	return s.tracePattern()
}
