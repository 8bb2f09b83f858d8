package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"memstream/internal/units"
)

// FuzzParseFrames drives the frame-trace text parser with arbitrary input:
// nothing may panic, and any accepted trace must round-trip exactly through
// FormatFrames — the dump/replay cycle memssim's -dump-trace relies on.
func FuzzParseFrames(f *testing.F) {
	f.Add("0 1500 I\n0.04 800 P\n0.08 600 B\n")
	f.Add("# comment\n\n40ms 3.1KiB\n80ms 25000bit I\n")
	f.Add("1.5 2KiB p\n2 4KiB b\n")
	f.Add("0 0\n")
	f.Add("0 1500\n0 1500\n")
	f.Add("bogus line\n")
	f.Add("0 1500 X\n")
	f.Add("1e300y 1500\n2e300y 1500\n")
	f.Add("0 1e309bit\n")
	f.Add("-5 100\n-4 100\n")
	f.Fuzz(func(t *testing.T, data string) {
		frames, err := ParseFrames(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := FormatFrames(&buf, frames); err != nil {
			t.Fatalf("format accepted trace: %v", err)
		}
		again, err := ParseFrames(&buf)
		if err != nil {
			t.Fatalf("formatted trace rejected: %v\n%s", err, buf.String())
		}
		if len(again) != len(frames) {
			t.Fatalf("round-trip changed the frame count: %d -> %d", len(frames), len(again))
		}
		for i := range frames {
			if frames[i].Timestamp != again[i].Timestamp ||
				frames[i].Size != again[i].Size ||
				frames[i].Class != again[i].Class {
				t.Errorf("frame %d changed in the round-trip: %+v -> %+v", i, frames[i], again[i])
			}
		}
		// An accepted trace also builds a demand pattern with sane bounds.
		p, err := NewTracePattern(frames)
		if err != nil {
			t.Fatalf("accepted trace rejected by NewTracePattern: %v", err)
		}
		if p.PeakRate() < p.AverageRate() {
			t.Errorf("peak rate %v below average %v", p.PeakRate(), p.AverageRate())
		}
	})
}

// segmentWalk integrates p's demand from t one Segment call at a time, each
// segment at its rate over its extent, until span has passed or the bits
// reach budget, solved at the rate of the segment they reach it in. It
// returns the time covered, the bits and that last rate.
func segmentWalk(p Pattern, t, span units.Duration, budget units.Size) (units.Duration, units.Size, units.BitRate) {
	var elapsed units.Duration
	var bits units.Size
	at, cursor := t, NoCursor
	for {
		rate, end, next := p.Segment(at, cursor)
		if whole := rate.Times(end.Sub(at)); end.Sub(t) < span && bits.Add(whole) < budget {
			elapsed, bits, at, cursor = end.Sub(t), bits.Add(whole), end, next
			continue
		}
		if need := rate.TimeFor(budget.Sub(bits)); elapsed.Add(need) < span {
			return elapsed.Add(need), bits.Add(rate.Times(need)), rate
		}
		return span, bits.Add(rate.Times(span.Sub(elapsed))), rate
	}
}

// FuzzAdvanceMatchesSegments checks Advance against segmentWalk on user
// traces in FuzzParseFrames's format and on video, VBR and CBR patterns from
// fuzzed seeds, from fuzzed times over fuzzed spans and budgets, with no
// cursor and with the one Segment returns at t. The bits and the time
// covered agree to a relative 1e-12 beyond the rounding the segment
// boundaries carry: a boundary is a float, so the extent segmentWalk drains
// a whole segment over is off by up to two ulps of the time reached, which
// Advance, adding whole frames' sizes, does not see. The walk stops exactly
// at the span or where the bits reach the budget, and Advance's cursor is
// the one Segment returns at the time it stops.
func FuzzAdvanceMatchesSegments(f *testing.F) {
	f.Add("0 1500 I\n0.04 800 P\n0.08 600 B\n", uint64(1), 0.01, 0.5, 40000.0)
	f.Add("# comment\n\n40ms 3.1KiB\n80ms 25000bit I\n", uint64(7), 12.0, 30.0, 1e6)
	f.Add("1.5 2KiB p\n2 4KiB b\n", uint64(1<<63), 0.0, 600.0, 1e9)
	f.Add("0 0\n", uint64(0), 59.99, 0.02, 1.0)
	f.Add("0 1500\n0.013 12000\n0.21 500\n0.2101 9000\n", uint64(3), 3.0, 2.0, 2e5)
	f.Fuzz(func(t *testing.T, trace string, seed uint64, at, span, budget float64) {
		if !(at >= 0 && at < 600) || !(span > 0 && span <= 600) || !(budget > 0 && budget < 1e10) {
			return
		}
		type walked struct {
			name     string
			p        Pattern
			shortest units.Duration // the shortest segment the pattern plays
		}
		video := VideoSpec(units.Kbps.Scale(float64(64+seed%4096)), seed)
		vp, err := video.Pattern(30 * units.Second)
		if err != nil {
			t.Fatal(err)
		}
		vbr := VBRSpec(units.Kbps.Scale(float64(64+seed%4096)), seed)
		vbr.SegmentLength = units.Second.Scale(0.25 + float64(seed%8)/4)
		vbr.Variability = float64(seed%10) / 10
		rp, err := vbr.Pattern(units.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := CBRSpec(units.Kbps.Scale(float64(64 + seed%4096))).Pattern(units.Hour)
		if err != nil {
			t.Fatal(err)
		}
		patterns := []walked{
			{"video", vp, units.Second.Scale(1 / video.withDefaults().FrameRate)},
			{"vbr", rp, vbr.SegmentLength},
			{"cbr", cp, units.Duration(math.Inf(1))},
		}
		if frames, err := ParseFrames(strings.NewReader(trace)); err == nil {
			tp, err := NewTracePattern(frames)
			if err != nil {
				t.Fatal(err)
			}
			shortest := units.Second.Scale(tp.horizon - tp.starts[len(tp.starts)-1])
			for i := 1; i < len(tp.starts); i++ {
				shortest = min(shortest, units.Second.Scale(tp.starts[i]-tp.starts[i-1]))
			}
			// Walking more than 1e5 frames, or frames the time's precision
			// cannot place, checks nothing more.
			if float64(len(frames))*(at+span)/tp.horizon < 1e5 {
				patterns = append(patterns, walked{"trace", tp, shortest})
			}
		}
		t0, span0, budget0 := units.Duration(at), units.Duration(span), units.Size(budget)
		reach := t0.Add(span0).Seconds()
		ulp := math.Nextafter(reach, math.Inf(1)) - reach
		for _, w := range patterns {
			_, _, hint := w.p.Segment(t0, NoCursor)
			for _, cursor := range []int{NoCursor, hint} {
				elapsed, bits, next := w.p.Advance(t0, cursor, span0, budget0)
				wantElapsed, wantBits, rate := segmentWalk(w.p, t0, span0, budget0)
				tol := 1e-12 + 2*ulp/w.shortest.Seconds()
				if !(elapsed >= 0 && elapsed <= span0) {
					t.Fatalf("%s at %v, cursor %d: covered %v of a %v span", w.name, t0, cursor, elapsed, span0)
				}
				if elapsed < span0 && math.Abs(bits.Bits()-budget) > tol*budget {
					t.Errorf("%s at %v, cursor %d: stopped after %v of %v with %.17g bits of a %.17g budget",
						w.name, t0, cursor, elapsed, span0, bits.Bits(), budget)
				}
				if d := math.Abs(bits.Bits() - wantBits.Bits()); d > tol*max(bits.Bits(), wantBits.Bits()) {
					t.Errorf("%s at %v, cursor %d: Advance drained %.17g bits, the segment walk %.17g (tolerance %.2e)",
						w.name, t0, cursor, bits.Bits(), wantBits.Bits(), tol)
				}
				slack := tol * wantElapsed.Seconds()
				if rate.Positive() {
					slack += tol * wantBits.Bits() / rate.BitsPerSecond()
				}
				if d := math.Abs(elapsed.Seconds() - wantElapsed.Seconds()); d > slack {
					t.Errorf("%s at %v, cursor %d: Advance covered %.17g s, the segment walk %.17g s",
						w.name, t0, cursor, elapsed.Seconds(), wantElapsed.Seconds())
				}
				if _, _, want := w.p.Segment(t0.Add(elapsed), NoCursor); next != want {
					t.Errorf("%s at %v, cursor %d: Advance's cursor %d at %v, Segment's %d", w.name, t0, cursor, next, t0.Add(elapsed), want)
				}
			}
		}
	})
}

// FuzzServeMatchesNext checks Serve against the per-request reference
// (checkServe) on fuzzed processes and backlog schedules: any valid process
// with a share of 0.001-0.99 and a finite mean interarrival, over a horizon
// of up to 10^4 mean interarrivals.
func FuzzServeMatchesNext(f *testing.F) {
	f.Add(uint64(1), 0.05, 32768.0, 0.5, 0.002, 102.4e6, 100.0, []byte{1, 0, 2, 128, 0, 9, 3, 255})
	f.Add(uint64(0), 0.99, 1.0, 1.0, 0.0, 1e3, 40.0, []byte{2, 255, 2, 255, 1, 1})
	f.Add(uint64(1<<63), 0.001, 1e9, 0.0, 1e-3, 1e10, 5000.0, []byte{3, 7, 1, 0})
	f.Fuzz(func(t *testing.T, seed uint64, fraction, meanBits, writeFraction, positioning, rate, horizonMeans float64, schedule []byte) {
		p := BestEffortProcess{
			TargetFraction:  fraction,
			MeanSize:        units.Bit.Scale(meanBits),
			WriteFraction:   writeFraction,
			ServiceRate:     units.BitPerSecond.Scale(rate),
			PositioningTime: units.Second.Scale(positioning),
			Seed:            seed,
		}
		if !(fraction >= 0.001 && fraction <= 0.99) || p.Validate() != nil || !(horizonMeans >= 0 && horizonMeans <= 1e4) {
			return
		}
		mean, err := p.MeanInterarrival()
		if err != nil || math.IsInf(mean.Seconds(), 1) {
			return
		}
		checkServe(t, p, mean.Scale(horizonMeans), schedule[:min(len(schedule), 256)])
	})
}
