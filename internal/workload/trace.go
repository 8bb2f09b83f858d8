package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"memstream/internal/units"
)

// DefaultFrameInterval is the display interval assumed when a trace is too
// short to reveal its own spacing (a single frame): one frame at 25 fps.
const DefaultFrameInterval = units.Duration(1.0 / 25)

// ParseFrames reads a frame trace in the one-frame-per-line text format:
//
//	# comment (blank lines are skipped too)
//	<timestamp> <size> [class]
//
// The timestamp accepts the duration grammar of internal/units without
// spaces ("0.04", "40ms"; bare numbers are seconds) and the size accepts the
// size grammar ("3.1KiB", "25000bit"; bare numbers are bytes). The optional
// class is I, P or B (defaulting to P). Timestamps must be strictly
// increasing; the trace is normalized so the first frame starts at zero.
func ParseFrames(r io.Reader) ([]Frame, error) {
	var frames []Frame
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("workload: trace line %d: want \"timestamp size [class]\", got %d fields", line, len(fields))
		}
		ts, err := units.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		size, err := units.ParseSize(fields[1])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		class := FrameP
		if len(fields) == 3 {
			class, err = ParseFrameClass(fields[2])
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
			}
		}
		frames = append(frames, Frame{Timestamp: ts, Class: class, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	if len(frames) == 0 {
		return nil, errors.New("workload: trace holds no frames")
	}
	return NormalizeFrames(frames)
}

// ParseFrameClass parses a frame class letter (I, P or B, case-insensitive).
func ParseFrameClass(s string) (FrameClass, error) {
	switch strings.ToUpper(s) {
	case "I":
		return FrameI, nil
	case "P":
		return FrameP, nil
	case "B":
		return FrameB, nil
	default:
		return 0, fmt.Errorf("workload: unknown frame class %q (want I, P or B)", s)
	}
}

// FormatFrames writes a trace in the ParseFrames text format, one frame per
// line with the timestamp in seconds and the size in bits, so a generated
// trace can be replayed through the trace path byte-faithfully.
func FormatFrames(w io.Writer, frames []Frame) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# frame trace: <timestamp seconds> <size> <class>")
	for _, f := range frames {
		if _, err := fmt.Fprintf(bw, "%g %gbit %s\n", f.Timestamp.Seconds(), f.Size.Bits(), f.Class); err != nil {
			return fmt.Errorf("workload: write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("workload: write trace: %w", err)
	}
	return nil
}

// NormalizeFrames shifts the trace so the first frame starts at time zero,
// renumbers the indices, and validates the result. The input order is
// preserved (timestamps must already be strictly increasing).
func NormalizeFrames(frames []Frame) ([]Frame, error) {
	if len(frames) == 0 {
		return nil, errors.New("workload: trace holds no frames")
	}
	offset := frames[0].Timestamp
	out := make([]Frame, len(frames))
	for i, f := range frames {
		f.Timestamp = f.Timestamp.Sub(offset)
		f.Index = i
		out[i] = f
	}
	if err := ValidateFrames(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ValidateFrames checks a trace in normalized form: at least one frame, the
// first at time zero, timestamps strictly increasing, every size positive,
// and every quantity finite (the parser rejects a quantity that overflows
// its unit, but a library caller can still pass an infinite timestamp or
// size, which would poison every rate derived from the trace).
func ValidateFrames(frames []Frame) error {
	if len(frames) == 0 {
		return errors.New("workload: trace holds no frames")
	}
	if frames[0].Timestamp != 0 {
		return fmt.Errorf("workload: trace must start at time zero (first frame at %v; NormalizeFrames shifts it)", frames[0].Timestamp)
	}
	for i, f := range frames {
		if !f.Size.Positive() || math.IsInf(f.Size.Bits(), 0) {
			return fmt.Errorf("workload: trace frame %d has non-positive or non-finite size %v", i, f.Size)
		}
		if math.IsInf(f.Timestamp.Seconds(), 0) || math.IsNaN(f.Timestamp.Seconds()) {
			return fmt.Errorf("workload: trace frame %d has a non-finite timestamp", i)
		}
		if i > 0 && f.Timestamp <= frames[i-1].Timestamp {
			return fmt.Errorf("workload: trace timestamps must be strictly increasing (frame %d at %v after %v)",
				i, f.Timestamp, frames[i-1].Timestamp)
		}
	}
	return nil
}

// TracePattern samples the instantaneous demand of a user-supplied frame
// trace: between two frame timestamps the rate is the earlier frame's size
// over the interval. The last frame's interval repeats the one before it
// (DefaultFrameInterval for a single-frame trace). Beyond the trace horizon
// the pattern wraps around and replays from the start, so simulations longer
// than the trace remain well defined. The pattern is read-only after
// construction: every replica and worker replaying a TraceSpec shares it.
type TracePattern struct {
	frames  []Frame
	starts  []float64 // frame start times in seconds, starts[0] == 0
	rates   []units.BitRate
	horizon float64
	peak    units.BitRate
	average units.BitRate
	// maxPass bounds the passes (trace replays) the cursor counts, so an
	// absolute frame index pass·n + i + 1 never overflows int.
	maxPass int
}

// NewTracePattern builds a demand sampler over the given frames (in
// ValidateFrames form).
func NewTracePattern(frames []Frame) (*TracePattern, error) {
	if err := ValidateFrames(frames); err != nil {
		return nil, err
	}
	n := len(frames)
	p := &TracePattern{
		frames:  frames,
		starts:  make([]float64, n),
		rates:   make([]units.BitRate, n),
		maxPass: min(maxFrameIndex, math.MaxInt/n-2),
	}
	lastInterval := DefaultFrameInterval.Seconds()
	if n > 1 {
		lastInterval = frames[n-1].Timestamp.Sub(frames[n-2].Timestamp).Seconds()
	}
	p.horizon = frames[n-1].Timestamp.Seconds() + lastInterval
	var total units.Size
	for i, f := range frames {
		p.starts[i] = f.Timestamp.Seconds()
		end := p.horizon
		if i+1 < n {
			end = frames[i+1].Timestamp.Seconds()
		}
		p.rates[i] = units.BitPerSecond.Scale(f.Size.Bits() / (end - p.starts[i]))
		if p.rates[i] > p.peak {
			p.peak = p.rates[i]
		}
		total = total.Add(f.Size)
	}
	p.average = units.BitPerSecond.Scale(total.Bits() / p.horizon)
	return p, nil
}

// Frames exposes the trace (for reports and round-trips).
func (p *TracePattern) Frames() []Frame { return p.frames }

// PeakRate returns the largest instantaneous demand of the trace.
func (p *TracePattern) PeakRate() units.BitRate { return p.peak }

// AverageRate returns the trace's long-run average demand.
func (p *TracePattern) AverageRate() units.BitRate { return p.average }

// Reset does nothing: a trace carries no seed, so every replica replays the
// same frames, and the pattern stays read-only for the replicas sharing it.
func (p *TracePattern) Reset(uint64) error { return nil }

// Segment returns the demand of the frame playing at t, the end of that
// frame and the cursor for the next call. Absolute frame j = pass·n + i
// covers [pass·horizon + starts[i], pass·horizon + starts[i+1]), and the
// last frame of a pass ends where the next pass starts, at
// (pass+1)·horizon. The returned cursor is j+1, the absolute index of the
// frame expected next; the frame it names and the one before it are tried
// before a search.
func (p *TracePattern) Segment(t units.Duration, cursor int) (units.BitRate, units.Duration, int) {
	s, n := t.Seconds(), len(p.starts)
	for j := cursor; j >= max(cursor-1, 0) && j/n < p.maxPass; j-- {
		if start, end := p.bounds(j/n, j%n); start <= s && s < end {
			return p.rates[j%n], units.Second.Scale(end), j + 1
		}
	}
	return p.search(t)
}

// Advance walks the frames from the one playing at t, as the video pattern
// does: that frame drains at its rate to its end, each whole frame after it
// drains its size in one add, and the frame the walk stops in drains at its
// rate. Beyond maxPass passes, and where t's precision loses the frame, it
// falls back to a walk by Segment.
func (p *TracePattern) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	rate, end, next := p.Segment(t, cursor)
	if next == NoCursor || !(t.Add(span).Seconds() < p.horizon*float64(p.maxPass)) {
		return walkSegments(p, t, cursor, span, budget)
	}
	n := len(p.starts)
	pass, i := (next-1)/n, (next-1)%n
	e := end.Sub(t) // the walk's elapsed time at the current frame's end
	drained := rate.Times(e)
	var elapsed units.Duration
	var bits units.Size
	for e < span && bits.Add(drained) < budget {
		elapsed, bits = e, bits.Add(drained)
		if i++; i == n {
			i, pass = 0, pass+1
		}
		_, stop := p.bounds(pass, i)
		e, drained = units.Second.Scale(stop).Sub(t), p.frames[i].Size
	}
	elapsed, bits = stopIn(p.rates[i], elapsed, span, bits, budget)
	_, _, next = p.Segment(t.Add(elapsed), pass*n+i)
	return elapsed, bits, next
}

// bounds returns the start and end, in seconds, of frame i in the given
// pass.
func (p *TracePattern) bounds(pass, i int) (start, end float64) {
	base := p.horizon * float64(pass)
	start = base + p.starts[i]
	if i+1 < len(p.starts) {
		return start, base + p.starts[i+1]
	}
	return start, p.horizon * float64(pass+1)
}

// search is Segment without a usable cursor: the pass from the quotient
// (within one either way), then the frame by binary search on the same sums
// bounds computes. Beyond maxPass, or where a pass is shorter than t's
// precision, the frame comes from the exact remainder of t over the horizon
// and no cursor is kept.
func (p *TracePattern) search(t units.Duration) (units.BitRate, units.Duration, int) {
	s, n := max(t.Seconds(), 0), len(p.starts)
	if q := s / p.horizon; q < float64(p.maxPass) {
		pass := int(q)
		for pass > 0 && p.horizon*float64(pass) > s {
			pass--
		}
		for p.horizon*float64(pass+1) <= s && pass < p.maxPass {
			pass++
		}
		base := p.horizon * float64(pass)
		i := sort.Search(n, func(k int) bool { return base+p.starts[k] > s }) - 1
		if _, end := p.bounds(pass, i); end > s {
			return p.rates[i], units.Second.Scale(end), pass*n + i + 1
		}
	}
	w := math.Mod(s, p.horizon)
	i := sort.Search(n, func(k int) bool { return p.starts[k] > w }) - 1
	frameEnd := p.horizon
	if i+1 < n {
		frameEnd = p.starts[i+1]
	}
	return p.rates[i], farEnd(t, w, frameEnd), NoCursor
}
