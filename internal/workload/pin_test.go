package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"memstream/internal/units"
)

// putFloat folds the exact bits of one value into h.
func putFloat(h hash.Hash64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// hashRequest folds the exact bits of one request into h.
func hashRequest(h hash.Hash64, r BestEffortRequest) {
	putFloat(h, r.Arrival.Seconds())
	putFloat(h, r.Size.Bits())
	if r.Write {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
}

// TestBestEffortDrawSequencePinned pins every best-effort request the
// process draws, bit for bit, over light and saturated loads, seeds at both
// ends of the range and two horizons, walked to the end of each horizon.
// The hash was re-recorded when Rng.Exp moved from inversion to the
// ziggurat, which changed every exponential draw; it fails if any draw
// moves, changes order or changes value.
func TestBestEffortDrawSequencePinned(t *testing.T) {
	const want = uint64(0xb3dc25940784903e)
	inf := units.Duration(math.Inf(1))
	h := fnv.New64a()
	count := 0
	for _, fraction := range []float64{0.01, 0.05, 0.5, 0.99} {
		for _, seed := range []uint64{0, 1, 7, 1 << 63} {
			for _, horizon := range []units.Duration{units.Minute, 10 * units.Minute} {
				a, err := NewBestEffortProcess(fraction, 102.4*units.Mbps, seed).Arrivals(horizon)
				if err != nil {
					t.Fatal(err)
				}
				for r, ok := a.Next(inf); ok; r, ok = a.Next(inf) {
					hashRequest(h, r)
					count++
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("draw sequence hash %016x over %d requests, want %016x", got, count, want)
	}
}

// TestVideoFramesPinned pins the generated video traces — every frame's
// index, timestamp, class and size, and the realized peak — over GOP
// shapes, jitter levels and seeds, each freshly built and after a Reset
// from another seed. The hash was recorded when the pattern still stored
// whole frames.
func TestVideoFramesPinned(t *testing.T) {
	const want = uint64(0xbfc429f5093bdbf2)
	h := fnv.New64a()
	hashPattern := func(p *VideoRatePattern) {
		for _, f := range p.Frames() {
			putFloat(h, float64(f.Index))
			putFloat(h, f.Timestamp.Seconds())
			putFloat(h, float64(f.Class))
			putFloat(h, f.Size.Bits())
		}
		putFloat(h, p.PeakRate().BitsPerSecond())
	}
	for _, gop := range []int{1, 7, 12, 15} {
		for _, jitter := range []float64{0, 0.1, 0.2} {
			for seed := uint64(1); seed <= 4; seed++ {
				spec := VideoSpec(1024*units.Kbps, seed)
				spec.GOPLength = gop
				spec.IPDistance = min(spec.IPDistance, gop)
				spec.Jitter = jitter
				p, err := spec.Pattern(units.Minute)
				if err != nil {
					t.Fatal(err)
				}
				v := p.(*VideoRatePattern)
				hashPattern(v)
				if err := v.Reset(seed + 10); err != nil {
					t.Fatal(err)
				}
				hashPattern(v)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("video frames hash %016x, want %016x", got, want)
	}
}

// TestVBRSegmentsPinned pins every VBR segment — its rate and its end, bit
// for bit — over seeds at both ends of the range, three variability
// settings and two segment lengths, walked in order over ten simulated
// minutes, then walked again after a Reset to another seed. The hash was
// recorded when the pattern still drew its segments in order from a
// stateful generator.
func TestVBRSegmentsPinned(t *testing.T) {
	const want = uint64(0x1c1eb3b5498a41d7)
	h := fnv.New64a()
	walk := func(p Pattern) {
		at, cursor := units.Duration(0), NoCursor
		for at < 10*units.Minute {
			rate, end, next := p.Segment(at, cursor)
			putFloat(h, rate.BitsPerSecond())
			putFloat(h, end.Seconds())
			at, cursor = end, next
		}
	}
	for _, seed := range []uint64{0, 1, 7, 1 << 63} {
		for _, variability := range []float64{0, 0.3, 0.9} {
			for _, length := range []units.Duration{500 * units.Millisecond, 2 * units.Second} {
				spec := VBRSpec(768*units.Kbps, seed)
				spec.Variability = variability
				spec.SegmentLength = length
				p, err := spec.Pattern(units.Hour)
				if err != nil {
					t.Fatal(err)
				}
				walk(p)
				if err := p.Reset(seed ^ 0x5555); err != nil {
					t.Fatal(err)
				}
				walk(p)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("VBR segments hash %016x, want %016x", got, want)
	}
}
