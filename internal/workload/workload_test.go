package workload

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"memstream/internal/units"
)

func TestRngDeterministic(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRng(43)
	same := true
	a = NewRng(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestRngFloat64Range(t *testing.T) {
	r := NewRng(7)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("Float64 mean = %g, want about 0.5", mean)
	}
}

// TestRngExpMean checks that Exp draws the exponential distribution. For
// each of four seeds, a million unit draws must lie within a
// Kolmogorov–Smirnov distance of 1.95/√n of 1 − e^-x (the 0.1 % critical
// value), their mean and variance within five standard errors of 1 (√(1/n)
// and √(8/n)), and their share beyond the right edge r, which only the tail
// branch reaches, within five standard deviations of e^-r. A sampler that
// accepts every wedge draw without its e^-x test fails on every seed, its
// variance 10–11 standard errors high. Seed replays the draws, a mean
// scales them exactly, and Exp does not allocate.
func TestRngExpMean(t *testing.T) {
	const n = 1_000_000
	xs := make([]float64, n)
	for _, seed := range []uint64{1, 11, 0x5bd1e9955bd1e995, 1 << 63} {
		r := NewRng(seed)
		for i := range xs {
			xs[i] = r.Exp(1)
		}
		r.Seed(seed)
		for i := range 1000 {
			if got := r.Exp(3); got != 3*xs[i] {
				t.Fatalf("seed %#x: draw %d replays as %g, want 3 × %g", seed, i, got, xs[i])
			}
		}

		var sum float64
		tail := 0
		for _, x := range xs {
			sum += x
			if x >= expZigR {
				tail++
			}
		}
		mean := sum / n
		var squares float64
		for _, x := range xs {
			squares += (x - mean) * (x - mean)
		}
		variance := squares / (n - 1)
		if z := (mean - 1) / math.Sqrt(1.0/n); math.Abs(z) > 5 {
			t.Errorf("seed %#x: mean %.6f is %.1f standard errors from 1", seed, mean, z)
		}
		if z := (variance - 1) / math.Sqrt(8.0/n); math.Abs(z) > 5 {
			t.Errorf("seed %#x: variance %.6f is %.1f standard errors from 1", seed, variance, z)
		}
		p := math.Exp(-expZigR)
		if z := (float64(tail)/n - p) / math.Sqrt(p*(1-p)/n); math.Abs(z) > 5 {
			t.Errorf("seed %#x: %d of %d draws beyond r, %.1f standard deviations from e^-r", seed, tail, n, z)
		}

		slices.Sort(xs)
		var d float64
		for i, x := range xs {
			f := -math.Expm1(-x)
			d = max(d, f-float64(i)/n, float64(i+1)/n-f)
		}
		if limit := 1.95 / math.Sqrt(n); d > limit {
			t.Errorf("seed %#x: Kolmogorov–Smirnov distance %.5f, want below %.5f", seed, d, limit)
		}
	}
	r := NewRng(1)
	if allocs := testing.AllocsPerRun(1000, func() { r.Exp(1) }); allocs != 0 {
		t.Errorf("Exp allocates %.1f times per call, want 0", allocs)
	}
}

func TestRngIntn(t *testing.T) {
	r := NewRng(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) covered only %d values", len(seen))
	}
	if r.Intn(0) != 0 {
		t.Error("Intn(0) should return 0")
	}
}

func TestStreamValidation(t *testing.T) {
	for _, good := range []StreamSpec{
		CBRSpec(1024 * units.Kbps),
		VBRSpec(1024*units.Kbps, 1),
		{Kind: SpecVBR, Rate: 1024 * units.Kbps}, // zero segment and variability take the defaults
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", good.Kind, err)
		}
	}
	bad := []StreamSpec{
		{Kind: SpecCBR, Rate: 0},
		{Kind: SpecCBR, Rate: 1024 * units.Kbps, WriteFraction: 1.5},
		{Kind: SpecVBR, Rate: 1024 * units.Kbps, SegmentLength: units.Second, Variability: -0.1},
		{Kind: SpecVBR, Rate: 1024 * units.Kbps, SegmentLength: units.Second, Variability: 1.2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("stream %d validated unexpectedly: %+v", i, s)
		}
	}
}

func TestCBRPatternIsConstant(t *testing.T) {
	p, err := CBRSpec(1024 * units.Kbps).Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []units.Duration{0, units.Second, units.Hour} {
		if got := rateAt(p, at); got != 1024*units.Kbps {
			t.Errorf("CBR rate at %v = %v", at, got)
		}
	}
}

func TestVBRPatternBoundedAndVarying(t *testing.T) {
	spec := VBRSpec(1024*units.Kbps, 99)
	p, err := spec.Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	lo := spec.Rate.Scale(1 - spec.Variability)
	hi := spec.Rate.Scale(1 + spec.Variability)
	seen := make(map[int64]bool)
	var sum float64
	const samples = 500
	for i := 0; i < samples; i++ {
		at := units.Duration(i) * spec.SegmentLength
		rate := rateAt(p, at)
		if rate < lo-1 || rate > hi+1 {
			t.Fatalf("VBR rate %v outside [%v, %v]", rate, lo, hi)
		}
		seen[int64(rate)] = true
		sum += rate.BitsPerSecond()
	}
	if len(seen) < 10 {
		t.Errorf("VBR pattern produced only %d distinct rates", len(seen))
	}
	mean := sum / samples
	if mean < 0.9*spec.Rate.BitsPerSecond() || mean > 1.1*spec.Rate.BitsPerSecond() {
		t.Errorf("VBR mean rate = %g, want near nominal %g", mean, spec.Rate.BitsPerSecond())
	}
}

func TestVBRPatternDeterministicPerSeed(t *testing.T) {
	a, _ := VBRSpec(1024*units.Kbps, 7).Pattern(units.Minute)
	b, _ := VBRSpec(1024*units.Kbps, 7).Pattern(units.Minute)
	for i := 0; i < 50; i++ {
		at := units.Duration(i) * units.Second
		if rateAt(a, at) != rateAt(b, at) {
			t.Fatal("same seed produced different VBR patterns")
		}
	}
}

func TestNewRatePatternRejectsInvalid(t *testing.T) {
	if _, err := (StreamSpec{Kind: SpecCBR}).Pattern(units.Second); err == nil {
		t.Error("invalid stream accepted")
	}
}

func TestBestEffortProcessValidation(t *testing.T) {
	good := NewBestEffortProcess(0.05, 102.4*units.Mbps, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("default process invalid: %v", err)
	}
	bad := []BestEffortProcess{
		{TargetFraction: -0.1},
		{TargetFraction: 1.0},
		{TargetFraction: 0.05, MeanSize: 0, ServiceRate: units.Mbps},
		{TargetFraction: 0.05, MeanSize: units.KiB, WriteFraction: 2, ServiceRate: units.Mbps},
		{TargetFraction: 0.05, MeanSize: units.KiB, ServiceRate: 0},
		{TargetFraction: math.NaN()},
		{TargetFraction: 0.05, MeanSize: units.KiB, WriteFraction: math.NaN(), ServiceRate: units.Mbps},
		{TargetFraction: 0.05, MeanSize: units.KiB, ServiceRate: units.Mbps, PositioningTime: units.Duration(math.NaN())},
		{WriteFraction: -0.5},
		// An infinite size or positioning time would validate a process
		// that never serves a request, and an infinite rate one whose
		// transfers take no time.
		{TargetFraction: 0.05, MeanSize: units.Size(math.Inf(1)), ServiceRate: units.Mbps},
		{TargetFraction: 0.05, MeanSize: units.KiB, ServiceRate: units.BitRate(math.Inf(1))},
		{TargetFraction: 0.05, MeanSize: units.KiB, ServiceRate: units.Mbps, PositioningTime: units.Duration(math.Inf(1))},
		{PositioningTime: units.Duration(math.Inf(1))},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("process %d validated unexpectedly: %+v", i, p)
		}
	}
	// A zero-fraction process is valid and generates nothing.
	idle := BestEffortProcess{TargetFraction: 0}
	if err := idle.Validate(); err != nil {
		t.Errorf("zero-fraction process invalid: %v", err)
	}
	reqs, err := collectArrivals(idle, units.Hour)
	if err != nil || len(reqs) != 0 {
		t.Errorf("zero-fraction process drew %d requests, err %v", len(reqs), err)
	}
}

// BestEffortRequest is one non-streaming (OS / file-system) request, as the
// per-request reference draws it.
type BestEffortRequest struct {
	// Arrival is the request arrival time.
	Arrival units.Duration
	// Size is the amount of data moved.
	Size units.Size
	// Write reports whether the request writes to the device.
	Write bool
}

// Next is the per-request reference for Serve: it returns the pending
// request if it arrives by now and before the horizon, and draws the one
// after it; otherwise it reports false and draws nothing. Each request draws
// its size (exponential, at least 512 bits), then its write flag, then the
// interarrival to the next request, so the sequence does not depend on when
// Next is called. An exponential takes one Uint64 about 98 % of the time and
// more in the rest (see Rng.Exp), always the same number from the same
// state. Next does not allocate.
func (a *BestEffortArrivals) Next(now units.Duration) (BestEffortRequest, bool) {
	if !(a.next < a.horizon) || a.next > now {
		return BestEffortRequest{}, false
	}
	size := units.Bit.Scale(a.rng.Exp(a.meanBits))
	if size < units.Size(512) {
		size = units.Size(512)
	}
	req := BestEffortRequest{Arrival: a.next, Size: size, Write: a.rng.Float64() < a.writeFraction}
	a.next = a.next.Add(units.Second.Scale(a.rng.Exp(a.mean)))
	return req, true
}

// served holds the running totals Serve continues: best-effort bits and
// requests, and the user and physical bits the writes among them add.
type served struct {
	bits, user, physical units.Size
	requests             int
}

// serve serves the backlog from now through Serve.
func (s *served) serve(a *BestEffortArrivals, now units.Duration, p BestEffortProcess, inflation float64) units.Duration {
	return a.Serve(now, p.PositioningTime, p.ServiceRate, inflation, &s.bits, &s.requests, &s.user, &s.physical)
}

// serveByNext serves the backlog from now one Next call per request, each
// asked for at the time its predecessor ends and credited as it is drawn:
// the reference for Serve.
func (s *served) serveByNext(a *BestEffortArrivals, now units.Duration, p BestEffortProcess, inflation float64) units.Duration {
	t := now
	for req, ok := a.Next(t); ok; req, ok = a.Next(t) {
		t = t.Add(p.ServiceTime(req.Size))
		s.bits = s.bits.Add(req.Size)
		s.requests++
		if req.Write {
			s.user = s.user.Add(req.Size)
			s.physical = s.physical.Add(req.Size.Scale(inflation))
		}
	}
	return t
}

// checkServe serves one process's backlogs by Serve and by serveByNext,
// from the same arrivals and running totals, and fails on the first
// difference, bit for bit, in the time the device is free, the totals or
// the arrivals left (the pending arrival and the generator state, which
// fix every request drawn next). Each pair of schedule bytes starts one
// backlog before, at or after the pending arrival, or past the horizon,
// and sets its inflation.
func checkServe(t *testing.T, p BestEffortProcess, horizon units.Duration, schedule []byte) {
	t.Helper()
	a, err := p.Arrivals(horizon)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := p.MeanInterarrival()
	if err != nil {
		t.Fatal(err)
	}
	ref := a
	// A device's totals carry over from earlier cycles.
	got := served{bits: 12345.5, user: 1e6 / 3, physical: 0.1, requests: 7}
	want := got
	for x := 0; x+1 < len(schedule); x += 2 {
		v := float64(schedule[x+1]) / 255
		now := a.next.Add(mean.Scale(3 * v)) // after
		switch schedule[x] % 4 {
		case 0: // before
			now = a.next.Sub(mean.Scale(v + 1e-6))
		case 1: // at
			now = a.next
		case 3: // past the horizon, where it is finite
			if !math.IsInf(horizon.Seconds(), 1) {
				now = horizon.Add(mean.Scale(v))
			}
		}
		inflation := 1 + 3*v*v
		end := got.serve(&a, now, p, inflation)
		wantEnd := want.serveByNext(&ref, now, p, inflation)
		if end != wantEnd || got != want || a != ref {
			t.Fatalf("%+v over %v, backlog %d from %v: Serve ends at %v with %+v, leaving %+v; the reference ends at %v with %+v, leaving %+v",
				p, horizon, x/2, now, end, got, a, wantEnd, want, ref)
		}
	}
}

// TestServeMatchesNext checks Serve against the per-request reference over
// generated processes (shares 0.001-0.99, mean sizes from 1 bit to 1 Tbit,
// write shares 0, 1 and random, positioning times including 0, seeds
// including 0 and 1<<63, horizons zero, infinite and up to 2000 mean
// interarrivals) and backlog schedules; see checkServe.
func TestServeMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	seeds := []uint64{0, 1 << 63, 1, 7}
	for c := 0; c < 400; c++ {
		p := BestEffortProcess{
			TargetFraction: 0.001 + 0.989*rng.Float64(),
			MeanSize:       units.Bit.Scale(math.Pow(10, 12*rng.Float64())),
			WriteFraction:  []float64{0, 1, rng.Float64()}[c%3],
			ServiceRate:    units.BitPerSecond.Scale(math.Pow(10, 3+7*rng.Float64())),
			Seed:           rng.Uint64(),
		}
		if c%2 == 0 {
			p.PositioningTime = units.Millisecond.Scale(10 * rng.Float64())
		}
		if c < 2*len(seeds) {
			p.Seed = seeds[c%len(seeds)]
		}
		if c%7 == 0 {
			// An infinite horizon only under a load the device keeps up
			// with: the 512-bit floor makes small requests cost more than
			// their mean size, so a heavy share of them never clears.
			p.TargetFraction = min(p.TargetFraction, 0.5)
			p.MeanSize = max(p.MeanSize, 4096)
		}
		mean, err := p.MeanInterarrival()
		if err != nil {
			t.Fatal(err)
		}
		horizon := mean.Scale(2000 * rng.Float64())
		switch c % 7 {
		case 0:
			horizon = units.Duration(math.Inf(1))
		case 1:
			horizon = 0
		}
		schedule := make([]byte, 2*rng.IntN(60))
		for i := range schedule {
			schedule[i] = byte(rng.Uint32())
		}
		checkServe(t, p, horizon, schedule)
	}
}

// TestServeDoesNotAllocate checks that serving a backlog allocates nothing.
func TestServeDoesNotAllocate(t *testing.T) {
	p := NewBestEffortProcess(0.5, 102.4*units.Mbps, 1)
	a, err := p.Arrivals(units.Duration(math.Inf(1)))
	if err != nil {
		t.Fatal(err)
	}
	var s served
	allocs := testing.AllocsPerRun(1000, func() {
		s.serve(&a, a.next, p, 1)
	})
	if allocs != 0 {
		t.Errorf("Serve allocates %.1f times per call, want 0", allocs)
	}
}

// collectArrivals walks the process's request sequence over the horizon to
// its end and returns every request in order.
func collectArrivals(p BestEffortProcess, horizon units.Duration) ([]BestEffortRequest, error) {
	a, err := p.Arrivals(horizon)
	if err != nil {
		return nil, err
	}
	inf := units.Duration(math.Inf(1))
	var out []BestEffortRequest
	for r, ok := a.Next(inf); ok; r, ok = a.Next(inf) {
		out = append(out, r)
	}
	return out, nil
}

// drawRequests is collectArrivals for a process the test expects to be
// valid.
func drawRequests(t *testing.T, p BestEffortProcess, horizon units.Duration) []BestEffortRequest {
	t.Helper()
	out, err := collectArrivals(p, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBestEffortMeanInterarrival(t *testing.T) {
	p := NewBestEffortProcess(0.05, 102.4*units.Mbps, 1)
	mean, err := p.MeanInterarrival()
	if err != nil {
		t.Fatal(err)
	}
	// Service per request: 2 ms positioning + 4 KiB / 102.4 Mbps = 2.32 ms;
	// at 5% load the mean interarrival is 46.4 ms.
	want := (0.002 + 4.0*1024*8/102.4e6) / 0.05
	if math.Abs(mean.Seconds()-want)/want > 1e-9 {
		t.Errorf("mean interarrival = %g s, want %g", mean.Seconds(), want)
	}
	if got := p.ServiceTime(4 * units.KiB).Seconds(); math.Abs(got-(want*0.05)) > 1e-12 {
		t.Errorf("ServiceTime = %g s, want %g", got, want*0.05)
	}
	idle := BestEffortProcess{TargetFraction: 0}
	m, err := idle.MeanInterarrival()
	if err != nil || !math.IsInf(m.Seconds(), 1) {
		t.Errorf("idle interarrival = %v, %v", m, err)
	}
}

func TestBestEffortGenerateMatchesTargetFraction(t *testing.T) {
	serviceRate := 102.4 * units.Mbps
	p := NewBestEffortProcess(0.05, serviceRate, 3)
	horizon := 10 * units.Minute
	reqs := drawRequests(t, p, horizon)
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	var busy units.Duration
	prev := units.Duration(-1)
	for _, r := range reqs {
		if r.Arrival < 0 || r.Arrival >= horizon {
			t.Fatalf("arrival %v outside horizon", r.Arrival)
		}
		if r.Arrival < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = r.Arrival
		if !r.Size.Positive() {
			t.Fatal("non-positive request size")
		}
		busy = busy.Add(p.ServiceTime(r.Size))
	}
	fraction := busy.Seconds() / horizon.Seconds()
	if fraction < 0.03 || fraction > 0.07 {
		t.Errorf("generated best-effort load = %g of time, want about 0.05", fraction)
	}
	// Both read and write requests appear.
	writes := 0
	for _, r := range reqs {
		if r.Write {
			writes++
		}
	}
	if writes == 0 || writes == len(reqs) {
		t.Errorf("write mix degenerate: %d of %d", writes, len(reqs))
	}
}

func TestBestEffortGenerateDeterministic(t *testing.T) {
	p := NewBestEffortProcess(0.05, 102.4*units.Mbps, 9)
	a := drawRequests(t, p, units.Minute)
	b := drawRequests(t, p, units.Minute)
	if len(a) != len(b) {
		t.Fatalf("different request counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different request streams")
		}
	}
}

func TestBestEffortGenerateRejectsInvalid(t *testing.T) {
	p := BestEffortProcess{TargetFraction: 0.5, MeanSize: 0}
	if _, err := p.Arrivals(units.Minute); err == nil {
		t.Error("invalid process accepted")
	}
}

func TestPlaybackCalendar(t *testing.T) {
	c := DefaultCalendar()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.SecondsPerYear().Seconds(); math.Abs(got-1.0512e7) > 1 {
		t.Errorf("SecondsPerYear = %g, want 1.0512e7", got)
	}
	if c.String() == "" {
		t.Error("empty calendar string")
	}
	bad := []PlaybackCalendar{
		{HoursPerDay: 0, DaysPerYear: 365},
		{HoursPerDay: 25, DaysPerYear: 365},
		{HoursPerDay: 8, DaysPerYear: 0},
		{HoursPerDay: 8, DaysPerYear: 400},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("calendar %d validated unexpectedly: %+v", i, c)
		}
	}
}

// Property: VBR rates always stay within the configured variability band
// (a zero variability takes the VBRSpec default).
func TestQuickVBRBounds(t *testing.T) {
	f := func(seed uint64, rawVar uint8) bool {
		s := StreamSpec{
			Kind:          SpecVBR,
			Rate:          1024 * units.Kbps,
			WriteFraction: 0.4,
			SegmentLength: units.Second,
			Variability:   float64(rawVar%90) / 100,
			Seed:          seed,
		}
		p, err := s.Pattern(units.Minute)
		if err != nil {
			return false
		}
		s = s.withDefaults()
		for i := 0; i < 50; i++ {
			rate := rateAt(p, units.Duration(i)*units.Second)
			lo := s.Rate.Scale(1 - s.Variability)
			hi := s.Rate.Scale(1 + s.Variability)
			if rate < lo-1 || rate > hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: best-effort arrivals are sorted and within the horizon for any seed.
func TestQuickBestEffortArrivalsSorted(t *testing.T) {
	f := func(seed uint64) bool {
		p := NewBestEffortProcess(0.05, 102.4*units.Mbps, seed)
		reqs, err := collectArrivals(p, 30*units.Second)
		if err != nil {
			return false
		}
		prev := units.Duration(-1)
		for _, r := range reqs {
			if r.Arrival < prev || r.Arrival >= 30*units.Second {
				return false
			}
			prev = r.Arrival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the request sequence does not depend on when it is asked for.
// Polling Next at any non-decreasing series of clock readings, repeats
// included, yields exactly the one walk to +Inf, and Next never hands out a
// request that has not arrived by now or that arrives at or after the
// horizon.
func TestQuickBestEffortArrivalsIndependentOfPolling(t *testing.T) {
	horizon := 10 * units.Second
	inf := units.Duration(math.Inf(1))
	f := func(seed uint64, rawFraction uint8, steps []uint16) bool {
		p := NewBestEffortProcess(float64(rawFraction%99+1)/100, 102.4*units.Mbps, seed)
		want, err := collectArrivals(p, horizon)
		if err != nil {
			return false
		}
		a, err := p.Arrivals(horizon)
		if err != nil {
			return false
		}
		var got []BestEffortRequest
		now := units.Duration(0)
		for i := 0; i <= len(steps); i++ {
			if i == len(steps) {
				now = inf
			} else {
				now = now.Add(units.Millisecond.Scale(float64(steps[i] % 1000)))
			}
			for r, ok := a.Next(now); ok; r, ok = a.Next(now) {
				if r.Arrival > now || r.Arrival >= horizon {
					return false
				}
				got = append(got, r)
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBestEffortArrivalsNextDoesNotAllocate(t *testing.T) {
	a, err := NewBestEffortProcess(0.5, 102.4*units.Mbps, 1).Arrivals(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	inf := units.Duration(math.Inf(1))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := a.Next(inf); !ok {
			t.Fatal("sequence ended early")
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkBestEffortArrivals times one best-effort request of the paper's
// 5 % process through Serve, so ns/op is the cost of a request drawn and
// served: its size, its write flag, the interarrival to the next and the
// running totals. Each call serves the backlog from the pending arrival, as
// the engine does once per refill cycle. The horizon is infinite, so the
// sequence never runs out.
func BenchmarkBestEffortArrivals(b *testing.B) {
	p := NewBestEffortProcess(0.05, 102.4*units.Mbps, 1)
	a, err := p.Arrivals(units.Duration(math.Inf(1)))
	if err != nil {
		b.Fatal(err)
	}
	var s served
	b.ReportAllocs()
	b.ResetTimer()
	for s.requests < b.N {
		s.serve(&a, a.next, p, 1)
	}
}
