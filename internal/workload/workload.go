// Package workload generates the streaming and best-effort traffic that
// drives the discrete-event simulator: constant- and variable-bit-rate stream
// patterns, the read/write mix of Table I, and a background best-effort
// request process standing in for operating-system and file-system activity.
//
// All generators are deterministic given a seed, so simulations are exactly
// reproducible, and none stores what it generates: a best-effort backlog's
// requests are drawn as it is served, a video frame's size is computed from
// the seed and its index. Exponentials come from a ziggurat over SplitMix64,
// so most of them cost one 64-bit draw and no logarithm.
package workload

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/units"
)

// Rng is a small, deterministic pseudo-random generator (SplitMix64). It is
// intentionally not cryptographic; it only has to be fast, seedable and
// well-distributed enough for workload generation. Exp is its own sampler,
// not math/rand's, whose value stream the standard library may change.
type Rng struct {
	state uint64
}

// NewRng returns a generator seeded with the given value.
func NewRng(seed uint64) *Rng {
	return &Rng{state: seed}
}

// Seed rewinds the generator to the state NewRng(seed) would start from, so
// a reused generator replays exactly the sequence a fresh one would produce.
func (r *Rng) Seed(seed uint64) {
	r.state = seed
}

// goldenGamma is SplitMix64's increment: a generator's state after k draws
// is its seed plus k of them.
const goldenGamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64-bit value.
func (r *Rng) Uint64() uint64 {
	r.state += goldenGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed value with the given mean, drawn
// by Marsaglia and Tsang's ziggurat ("The Ziggurat Method for Generating
// Random Variables", J. Stat. Software 5(8), 2000) over 256 layers of equal
// area. One Uint64 picks the layer from its low 8 bits and the abscissa from
// its high 53, and about 98 % of draws need nothing more. The rest take the
// wedge test or the tail, each with one more Float64, and a rejected wedge
// draw starts over, so the number of Uint64 draws per call varies.
func (r *Rng) Exp(mean float64) float64 {
	for {
		u := r.Uint64()
		i, j := u&0xff, u>>11
		x := float64(j) * expZig.w[i]
		if j < expZig.k[i] {
			return mean * x
		}
		if i == 0 {
			// Memorylessness: the tail beyond r is r plus an exponential.
			// 1 − Float64 is never 0, so the logarithm stays finite.
			return mean * (expZigR - math.Log(1-r.Float64()))
		}
		if expZig.f[i]+r.Float64()*(expZig.f[i-1]-expZig.f[i]) < math.Exp(-x) {
			return mean * x
		}
	}
}

// expZigR is the right edge of the ziggurat's rectangles and expZigV the
// area of every layer (Marsaglia and Tsang's values for 256 layers).
const (
	expZigR = 7.69711747013104972
	expZigV = 3.949659822581572e-3
)

// expZig holds the ziggurat's layers. Layer i ≥ 1 is the rectangle
// [0, x_i) × [e^-x_i, e^-x_(i-1)], from x_255 = r up to x_0 = 0; layer 0 is
// the base strip of width v/e^-r, its part beyond r standing for the tail.
// w[i] scales a 53-bit draw to [0, x_i), below k[i] the draw lies under the
// layer above and so under the curve, and f[i] is e^-x_i.
var expZig = newExpZiggurat()

type ziggurat struct {
	k    [256]uint64
	w, f [256]float64
}

// newExpZiggurat builds the layers downwards from r by Marsaglia and Tsang's
// recurrence x_(i-1) = -log(v/x_i + e^-x_i), which gives each layer area v.
func newExpZiggurat() ziggurat {
	const m = 1 << 53
	var z ziggurat
	x := expZigR
	q := expZigV / math.Exp(-x)
	z.k[0], z.w[0], z.f[0] = uint64(x/q*m), q/m, 1
	z.w[255], z.f[255] = x/m, math.Exp(-x)
	for i := 254; i >= 1; i-- {
		next := -math.Log(expZigV/x + math.Exp(-x))
		z.k[i+1] = uint64(next / x * m)
		x = next
		z.w[i], z.f[i] = x/m, math.Exp(-x)
	}
	return z
}

// Intn returns a uniform integer in [0, n).
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// NoCursor is the Segment cursor that carries no hint: the pattern finds the
// segment holding t from scratch.
const NoCursor = -1

// stopIn ends a walk inside a segment of the given rate, entered after
// elapsed of its span with bits of its budget drained: where the bits reach
// the budget, or at the end of the span.
func stopIn(rate units.BitRate, elapsed, span units.Duration, bits, budget units.Size) (units.Duration, units.Size) {
	if need := rate.TimeFor(budget.Sub(bits)); elapsed.Add(need) < span {
		return elapsed.Add(need), bits.Add(rate.Times(need))
	}
	return span, bits.Add(rate.Times(span.Sub(elapsed)))
}

// walkSegments is Advance by one Segment call per segment, each drained at
// its rate over its extent. Patterns fall back to it where their own walk
// has no exact segment index, beyond maxFrameIndex segments.
func walkSegments(p Pattern, t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	rate, end, next := p.Segment(t, cursor)
	drained := rate.Times(end.Sub(t))
	var elapsed units.Duration
	var bits units.Size
	for end.Sub(t) < span && bits.Add(drained) < budget {
		elapsed, bits = end.Sub(t), bits.Add(drained)
		start := end
		rate, end, next = p.Segment(start, next)
		drained = rate.Times(end.Sub(start))
	}
	elapsed, bits = stopIn(rate, elapsed, span, bits, budget)
	_, _, next = p.Segment(t.Add(elapsed), next)
	return elapsed, bits, next
}

// RatePattern samples the instantaneous demand of a CBR or VBR spec: the
// nominal rate throughout for CBR, and for VBR one rate per segment, uniform
// in the variability band. StreamSpec.Pattern builds it. Segment k of a VBR
// stream plays draw k of the SplitMix64 sequence its seed starts, computed
// straight from the seed, so the pattern answers any time in any order and
// keeps no draw state.
type RatePattern struct {
	spec StreamSpec // defaulted; Reset re-seeds it
	vbr  bool
}

// newRatePattern builds a sampler for a defaulted, validated CBR or VBR
// spec.
func newRatePattern(s StreamSpec) *RatePattern {
	return &RatePattern{spec: s, vbr: s.Kind == SpecVBR}
}

// Reset re-seeds the pattern, so it plays exactly the segments
// StreamSpec.Pattern would build for the same spec with that seed. It never
// fails and does not allocate.
func (p *RatePattern) Reset(seed uint64) error {
	p.spec.Seed = seed
	return nil
}

// PeakRate returns the highest rate the pattern can produce.
func (p *RatePattern) PeakRate() units.BitRate { return p.spec.PeakRate() }

// Segment returns the rate in effect at time t and the end of its segment:
// the nominal rate until +Inf for CBR, whose cursor passes through unused;
// for VBR segment k, which covers [k·SegmentLength, (k+1)·SegmentLength),
// with k+1 as the cursor, as the video pattern does.
func (p *RatePattern) Segment(t units.Duration, cursor int) (units.BitRate, units.Duration, int) {
	if !p.vbr {
		return p.spec.Rate, units.Duration(math.Inf(1)), cursor
	}
	length := p.spec.SegmentLength
	k := segmentIndex(t, length, cursor)
	if k < 0 {
		// Beyond maxFrameIndex segments: the index as exact as t allows.
		w := math.Mod(t.Seconds(), length.Seconds())
		return p.segmentRate(uint64(math.Mod(t.Seconds()/length.Seconds(), 1<<64))), farEnd(t, w, length.Seconds()), NoCursor
	}
	return p.segmentRate(uint64(k)), length.Scale(float64(k + 1)), k + 1
}

// Advance integrates the demand from t: in closed form for CBR, whose cursor
// passes through, and for VBR segment by segment, each whole segment drained
// at its rate over its extent.
func (p *RatePattern) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	if !p.vbr {
		rate := p.spec.Rate
		if need := rate.TimeFor(budget); need < span {
			return need, rate.Times(need), cursor
		}
		return span, rate.Times(span), cursor
	}
	length := p.spec.SegmentLength
	k := segmentIndex(t, length, cursor)
	if k < 0 || !(t.Add(span) < length.Scale(maxFrameIndex)) {
		return walkSegments(p, t, cursor, span, budget)
	}
	rate, end := p.segmentRate(uint64(k)), length.Scale(float64(k+1))
	drained := rate.Times(end.Sub(t))
	var elapsed units.Duration
	var bits units.Size
	for end.Sub(t) < span && bits.Add(drained) < budget {
		elapsed, bits = end.Sub(t), bits.Add(drained)
		k++
		start := end
		rate, end = p.segmentRate(uint64(k)), length.Scale(float64(k+1))
		drained = rate.Times(end.Sub(start))
	}
	elapsed, bits = stopIn(rate, elapsed, span, bits, budget)
	return elapsed, bits, segmentIndex(t.Add(elapsed), length, k) + 1
}

// segmentRate returns the rate of VBR segment k. A SplitMix64 generator's
// state after k draws is its seed plus k increments, so draw k of the
// sequence the seed starts is one step from that state.
func (p *RatePattern) segmentRate(k uint64) units.BitRate {
	r := Rng{state: (p.spec.Seed ^ 0xa5a5a5a5a5a5a5a5) + k*goldenGamma}
	spread := p.spec.Variability
	return p.spec.Rate.Scale(1 - spread + 2*spread*r.Float64())
}

// BestEffortProcess generates background requests whose long-run service
// demand matches a target fraction of device-active time, as the paper's 5 %
// best-effort share does.
//
// Unlike the sequential stream, best-effort requests are random accesses: each
// one pays a positioning (seek) overhead before its transfer. The 5 % share is
// therefore mostly repositioning time, and the background data volume stays
// small compared to the stream — which is why the paper's lifetime equations
// ignore best-effort wear.
type BestEffortProcess struct {
	// TargetFraction is the share of wall-clock time the device should spend
	// serving best-effort traffic.
	TargetFraction float64
	// MeanSize is the mean request size.
	MeanSize units.Size
	// WriteFraction is the share of best-effort requests that write.
	WriteFraction float64
	// ServiceRate is the rate at which the device serves the requests
	// (the aggregate media rate).
	ServiceRate units.BitRate
	// PositioningTime is the per-request repositioning overhead paid before
	// the transfer (a random access, unlike the sequential stream).
	PositioningTime units.Duration
	// Seed makes the arrival pattern reproducible.
	Seed uint64
}

// NewBestEffortProcess returns a process matching the paper's assumptions:
// the given share of time, 4 KiB mean requests, half of them writes, and a
// 2 ms positioning overhead per request (the Table I seek time).
func NewBestEffortProcess(fraction float64, serviceRate units.BitRate, seed uint64) BestEffortProcess {
	return BestEffortProcess{
		TargetFraction:  fraction,
		MeanSize:        4 * units.KiB,
		WriteFraction:   0.5,
		ServiceRate:     serviceRate,
		PositioningTime: 2 * units.Millisecond,
		Seed:            seed,
	}
}

// ServiceTime returns the device-busy time one request of the given size
// costs: the positioning overhead plus the transfer at the service rate.
func (p BestEffortProcess) ServiceTime(size units.Size) units.Duration {
	return p.PositioningTime.Add(p.ServiceRate.TimeFor(size))
}

// Validate checks the process parameters. The zero value, which serves
// nothing, is valid; a NaN fails every range check, and an infinite size,
// rate or positioning time fails too.
func (p BestEffortProcess) Validate() error {
	var errs []error
	if !(p.TargetFraction >= 0 && p.TargetFraction < 1) {
		errs = append(errs, errors.New("workload: best-effort fraction must be in [0, 1)"))
	}
	if p.TargetFraction > 0 && (!p.MeanSize.Positive() || math.IsInf(p.MeanSize.Bits(), 1)) {
		errs = append(errs, errors.New("workload: best-effort requests need a positive, finite mean size"))
	}
	if !(p.WriteFraction >= 0 && p.WriteFraction <= 1) {
		errs = append(errs, errors.New("workload: best-effort write fraction must be in [0, 1]"))
	}
	if p.TargetFraction > 0 && (!p.ServiceRate.Positive() || math.IsInf(p.ServiceRate.BitsPerSecond(), 1)) {
		errs = append(errs, errors.New("workload: best-effort service rate must be positive and finite"))
	}
	if !(p.PositioningTime >= 0) || math.IsInf(p.PositioningTime.Seconds(), 1) {
		errs = append(errs, errors.New("workload: best-effort positioning time must be non-negative and finite"))
	}
	return errors.Join(errs...)
}

// MeanInterarrival returns the mean time between requests implied by the
// target fraction, mean size and service rate.
func (p BestEffortProcess) MeanInterarrival() (units.Duration, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.TargetFraction == 0 {
		return units.Duration(math.Inf(1)), nil
	}
	return p.ServiceTime(p.MeanSize).Scale(1 / p.TargetFraction), nil
}

// Arrivals returns the process's requests arriving in [0, horizon) as an
// on-demand sequence: Serve draws each request only when the device reaches
// it, so the sequence stays the same small value whatever the horizon or the
// load. A zero-fraction process, or a non-positive horizon, yields nothing.
func (p BestEffortProcess) Arrivals(horizon units.Duration) (BestEffortArrivals, error) {
	mean, err := p.MeanInterarrival()
	if err != nil || p.TargetFraction == 0 || !horizon.Positive() {
		return BestEffortArrivals{}, err
	}
	a := BestEffortArrivals{
		rng:           Rng{state: p.Seed ^ 0x5bd1e9955bd1e995},
		horizon:       horizon,
		mean:          mean.Seconds(),
		meanBits:      p.MeanSize.Bits(),
		writeFraction: p.WriteFraction,
	}
	a.next = units.Second.Scale(a.rng.Exp(a.mean))
	return a, nil
}

// BestEffortArrivals is the request sequence of one best-effort process over
// a horizon, drawn on demand. Its zero value yields nothing.
type BestEffortArrivals struct {
	rng           Rng
	horizon       units.Duration
	mean          float64 // mean interarrival, seconds
	meanBits      float64 // mean request size, bits
	writeFraction float64
	// next is the arrival of the pending request, whose size and write flag
	// are not drawn yet.
	next units.Duration
}

// Serve serves the backlog from now and returns when the device is free:
// each pending request that arrives before the horizon and by the time its
// predecessor ends takes positioning plus its size at rate, as
// BestEffortProcess.ServiceTime computes it. Each request draws its size
// (exponential, at least 512 bits), its write flag and the interarrival to
// the next, in that order, and is added to the running totals as it is
// served: its size to bits and, for a write, to userBits and times
// inflation to physicalBits. Serve makes no call for the 96 % of requests
// whose exponentials both take the ziggurat's rectangle on their first
// Uint64; the rest are drawn again through Rng.Exp. It does not allocate.
func (a *BestEffortArrivals) Serve(now, positioning units.Duration, rate units.BitRate, inflation float64, bits *units.Size, requests *int, userBits, physicalBits *units.Size) units.Duration {
	t, next, horizon, state := now, a.next, a.horizon, a.rng.state
	meanBits, mean, writeFraction := a.meanBits, a.mean, a.writeFraction
	served, count, user, physical := *bits, *requests, *userBits, *physicalBits
	for next < horizon && next <= t {
		r := Rng{state: state}
		u, w, v := r.Uint64(), r.Uint64(), r.Uint64()
		size := units.Bit.Scale(meanBits * (float64(u>>11) * expZig.w[u&0xff]))
		write := float64(w>>11)/(1<<53) < writeFraction
		gap := mean * (float64(v>>11) * expZig.w[v&0xff])
		if u>>11 >= expZig.k[u&0xff] || v>>11 >= expZig.k[v&0xff] {
			slow := Rng{state: state}
			size = units.Bit.Scale(slow.Exp(meanBits))
			write = slow.Float64() < writeFraction
			gap = slow.Exp(mean)
			r = slow
		}
		state = r.state
		if size < units.Size(512) {
			size = units.Size(512)
		}
		next = next.Add(units.Second.Scale(gap))
		t = t.Add(positioning.Add(rate.TimeFor(size)))
		served = served.Add(size)
		count++
		// A read adds +0, leaving the written totals (never −0) exact: the
		// write flag, a coin toss, picks a mask, not a mispredicted branch.
		var mask uint64
		if write {
			mask = math.MaxUint64
		}
		user = user.Add(masked(size, mask))
		physical = physical.Add(masked(size.Scale(inflation), mask))
	}
	a.rng.state, a.next = state, next
	*bits, *requests, *userBits, *physicalBits = served, count, user, physical
	return t
}

// masked returns s where mask is all ones and +0 where it is zero.
func masked(s units.Size, mask uint64) units.Size {
	return units.Bit.Scale(math.Float64frombits(math.Float64bits(s.Bits()) & mask))
}

// PlaybackCalendar expands a daily usage pattern (hours of streaming per day)
// into per-year totals, matching the lifetime model's workload accounting.
type PlaybackCalendar struct {
	// HoursPerDay is the daily streaming time.
	HoursPerDay float64
	// DaysPerYear is the number of active days per year (365 in the paper).
	DaysPerYear float64
}

// DefaultCalendar returns the paper's eight-hours-every-day calendar.
func DefaultCalendar() PlaybackCalendar {
	return PlaybackCalendar{HoursPerDay: 8, DaysPerYear: 365}
}

// Validate checks the calendar.
func (c PlaybackCalendar) Validate() error {
	if c.HoursPerDay <= 0 || c.HoursPerDay > 24 {
		return errors.New("workload: hours per day must be in (0, 24]")
	}
	if c.DaysPerYear <= 0 || c.DaysPerYear > 366 {
		return errors.New("workload: days per year must be in (0, 366]")
	}
	return nil
}

// SecondsPerYear returns the total streamed seconds per year.
func (c PlaybackCalendar) SecondsPerYear() units.Duration {
	return units.Hour.Scale(c.HoursPerDay * c.DaysPerYear)
}

// String summarises the calendar.
func (c PlaybackCalendar) String() string {
	return fmt.Sprintf("%.3g h/day, %.3g days/year", c.HoursPerDay, c.DaysPerYear)
}
