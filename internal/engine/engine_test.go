package engine

import (
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return diff < tol
	}
	return diff/scale < tol
}

// newSingleCore builds the one-stream core a single-stream simulation drives.
func newSingleCore(b Backend, src workload.Pattern, buffer units.Size, writeFraction float64) *MultiCore {
	return NewMultiCore(b, []StreamConfig{{Source: src, Buffer: buffer, WriteFraction: writeFraction}})
}

func TestMEMSBackendMatchesDevice(t *testing.T) {
	dev := device.DefaultMEMS()
	b := NewMEMS(dev)
	if b.Name() != dev.Name {
		t.Errorf("Name = %q, want %q", b.Name(), dev.Name)
	}
	if b.MediaRate() != dev.MediaRate() {
		t.Errorf("MediaRate = %v, want %v", b.MediaRate(), dev.MediaRate())
	}
	if b.PositioningTime() != dev.SeekTime || b.ShutdownTime() != dev.ShutdownTime {
		t.Error("transition times disagree with the device")
	}
	for s := device.PowerState(0); int(s) < device.NumStates; s++ {
		if b.StatePower(s) != dev.StatePower(s) {
			t.Errorf("StatePower(%v) = %v, want %v", s, b.StatePower(s), dev.StatePower(s))
		}
	}
	// Small sectors pay more formatting overhead than large ones.
	small := b.WriteInflation(2 * units.KiB)
	large := b.WriteInflation(1 * units.MiB)
	if small <= large || large < 1 {
		t.Errorf("write inflation should shrink with sector size: %g vs %g", small, large)
	}
}

func TestDiskBackendTransitions(t *testing.T) {
	d := device.Default18InchDisk()
	b := NewDisk(d)
	wantPos := d.SpinUpTime.Add(d.SeekTime)
	if b.PositioningTime() != wantPos {
		t.Errorf("PositioningTime = %v, want %v", b.PositioningTime(), wantPos)
	}
	if b.ShutdownTime() != d.SpinDownTime {
		t.Errorf("ShutdownTime = %v, want %v", b.ShutdownTime(), d.SpinDownTime)
	}
	// Accounting the positioning at the blended power must reproduce the
	// spin-up plus seek energy exactly.
	got := b.StatePower(device.StateSeek).Times(b.PositioningTime())
	want := d.SpinUpPower.Times(d.SpinUpTime).Add(d.SeekPower.Times(d.SeekTime))
	if !almostEqual(got.Joules(), want.Joules(), 1e-12) {
		t.Errorf("positioning energy = %v, want %v", got, want)
	}
	if b.WriteInflation(64*units.KiB) != 1 {
		t.Error("disk write inflation should be 1")
	}
	if b.StatePower(device.PowerState(99)) != 0 {
		t.Error("unknown state should draw no power")
	}
}

func TestCoreDrainRefillConservation(t *testing.T) {
	dev := device.DefaultMEMS()
	b := NewMEMS(dev)
	rate := 1024 * units.Kbps
	buffer := 64 * units.KiB
	c := newSingleCore(b, cbrSource(t, rate), buffer, 0.4)

	target := c.WakeLevel(0)
	deadline := units.Duration(3600)
	if woken := c.drainToWake(device.StateStandby, deadline); woken != 0 {
		t.Fatalf("drainToWake = %d, want stream 0 to force the wake-up", woken)
	}
	if !almostEqual(c.Level(0).Bits(), target.Bits(), 1e-9) {
		t.Fatalf("drained to %v, want %v", c.Level(0), target)
	}
	// CBR drain is a single exact step: streamed bits equal the level drop.
	wantStreamed := buffer.Sub(target)
	if !almostEqual(c.DeviceStats().StreamedBits.Bits(), wantStreamed.Bits(), 1e-9) {
		t.Errorf("streamed %v, want %v", c.DeviceStats().StreamedBits, wantStreamed)
	}
	wantTime := rate.TimeFor(wantStreamed)
	if !almostEqual(c.DeviceStats().StateTime[device.StateStandby].Seconds(), wantTime.Seconds(), 1e-9) {
		t.Errorf("standby time %v, want %v", c.DeviceStats().StateTime[device.StateStandby], wantTime)
	}

	c.refillStream(0)
	if !almostEqual(c.Level(0).Bits(), buffer.Bits(), 1e-9) {
		t.Fatalf("refilled to %v, want %v", c.Level(0), buffer)
	}
	st := c.DeviceStats()
	if !st.MediaBits.Positive() || st.MediaBits < buffer.Sub(target) {
		t.Errorf("media bits %v too small for a %v refill", st.MediaBits, buffer.Sub(target))
	}
	if !almostEqual(st.WrittenUserBits.Bits(), st.MediaBits.Scale(0.4).Bits(), 1e-9) {
		t.Errorf("user writes %v, want 40%% of %v", st.WrittenUserBits, st.MediaBits)
	}
	if st.WrittenPhysicalBits < st.WrittenUserBits {
		t.Error("physical writes must include the formatting overhead")
	}
	if st.Underruns != 0 {
		t.Errorf("unexpected underruns: %d", st.Underruns)
	}
}

func TestCoreUnderrunAccounting(t *testing.T) {
	dev := device.DefaultMEMS()
	b := NewMEMS(dev)
	buffer := units.Size(1000)
	c := newSingleCore(b, cbrSource(t, 4096*units.Kbps), buffer, 0.4)
	// A one-second accounting step drains far more than the buffer holds.
	c.account(device.StateSeek, units.Duration(1), 0)
	if c.DeviceStats().Underruns != 1 {
		t.Errorf("underruns = %d, want 1", c.DeviceStats().Underruns)
	}
	if c.Level(0) != 0 {
		t.Errorf("level = %v, want 0 after an underrun", c.Level(0))
	}
	if !almostEqual(c.DeviceStats().StreamedBits.Bits(), buffer.Bits(), 1e-12) {
		t.Errorf("streamed %v, want only the %v that was there", c.DeviceStats().StreamedBits, buffer)
	}
}

func TestCycleEnergyMatchesStepwiseAccounting(t *testing.T) {
	// One refill cycle, state by state: each step's energy is its state's
	// power times its residency, so the device energy is Σ power × time.
	dev := device.DefaultMEMS()
	c := newSingleCore(NewMEMS(dev), cbrSource(t, 1024*units.Kbps), 128*units.KB, 0.4)
	steps := []struct {
		state device.PowerState
		dt    units.Duration
	}{
		{device.StateSeek, 2 * units.Millisecond},
		{device.StateReadWrite, 5 * units.Millisecond},
		{device.StateBestEffort, 1 * units.Millisecond},
		{device.StateShutdown, 1 * units.Millisecond},
		{device.StateStandby, 150 * units.Millisecond},
	}
	var want units.Energy
	for _, st := range steps {
		c.account(st.state, st.dt, 0)
		want = want.Add(dev.StatePower(st.state).Times(st.dt))
	}
	stats := c.DeviceStats()
	if got := stats.DeviceEnergy(); !almostEqual(got.Joules(), want.Joules(), 1e-12) {
		t.Errorf("DeviceEnergy = %v, want Σ power × residency = %v", got, want)
	}
	for _, st := range steps {
		if got := stats.StateTime[st.state]; got != st.dt {
			t.Errorf("%v residency = %v, want %v", st.state, got, st.dt)
		}
	}
	if got, want := c.StreamStats(0).DeviceEnergy(), stats.DeviceEnergy(); got != want {
		t.Errorf("focused stream energy = %v, want the device's %v", got, want)
	}
}

func TestStepBoundStopsAtRateChanges(t *testing.T) {
	// drainToWake integrates a VBR pattern across its segment ends exactly,
	// each segment at its own rate, in one standby step.
	pattern, err := workload.VBRSpec(1024*units.Kbps, 42).Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b := NewMEMS(device.DefaultMEMS())
	// A buffer holding many seconds of stream forces multi-segment drains.
	buffer := (1024 * units.Kbps).Times(10 * units.Second)
	c := newSingleCore(b, pattern, buffer, 0.4)
	c.drainToWake(device.StateStandby, units.Duration(3600))
	// Exactness: the streamed volume equals the drop to the wake level (no
	// underruns, no overshoot), even though the rate changed every two
	// seconds.
	if c.DeviceStats().Underruns != 0 {
		t.Errorf("underruns = %d, want 0", c.DeviceStats().Underruns)
	}
	want := buffer.Sub(c.WakeLevel(0))
	if !almostEqual(c.DeviceStats().StreamedBits.Bits(), want.Bits(), 1e-9) {
		t.Errorf("streamed %v, want exactly %v", c.DeviceStats().StreamedBits, want)
	}
	if c.DeviceStats().Steps != 1 {
		t.Errorf("drain took %d steps, want one standby step across the two-second segments", c.DeviceStats().Steps)
	}
	// The drain crossed several segments; the total time must equal the sum
	// of per-segment drain times, which for a ±30% pattern differs
	// measurably from the constant-rate time.
	drainTime := c.DeviceStats().StateTime[device.StateStandby]
	if drainTime.Seconds() < 5 || drainTime.Seconds() > 20 {
		t.Errorf("drain time %v outside the plausible VBR range", drainTime)
	}
}

// stepRate is a two-phase test source: lowRate before switchAt, highRate
// after, with the boundary as the first segment's end.
type stepRate struct {
	switchAt          units.Duration
	lowRate, highRate units.BitRate
}

func (s stepRate) PeakRate() units.BitRate { return s.highRate }
func (s stepRate) Reset(uint64) error      { return nil }
func (s stepRate) Segment(t units.Duration, cursor int) (units.BitRate, units.Duration, int) {
	if t < s.switchAt {
		return s.lowRate, s.switchAt, cursor
	}
	return s.highRate, units.Duration(math.Inf(1)), cursor
}

func (s stepRate) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	elapsed, bits := advanceTwoPhase(s.switchAt, s.lowRate, s.highRate, t, span, budget)
	return elapsed, bits, cursor
}

// advanceTwoPhase is Advance for a source playing before until switchAt and
// after from then on.
func advanceTwoPhase(switchAt units.Duration, before, after units.BitRate, t, span units.Duration, budget units.Size) (units.Duration, units.Size) {
	// stopIn ends the walk in a segment of the given rate entered after
	// elapsed with bits drained: at the budget or at the span's end.
	stopIn := func(rate units.BitRate, elapsed units.Duration, bits units.Size) (units.Duration, units.Size) {
		if need := rate.TimeFor(budget.Sub(bits)); elapsed.Add(need) < span {
			return elapsed.Add(need), bits.Add(rate.Times(need))
		}
		return span, bits.Add(rate.Times(span.Sub(elapsed)))
	}
	if t >= switchAt {
		return stopIn(after, 0, 0)
	}
	first := switchAt.Sub(t)
	if bits := before.Times(first); first < span && bits < budget {
		return stopIn(after, first, bits)
	}
	return stopIn(before, 0, 0)
}

// spikeRate models one oversized video frame: demand above the media rate
// until switchAt, modest afterwards, with the boundary as a segment end.
type spikeRate struct {
	switchAt          units.Duration
	highRate, lowRate units.BitRate
}

func (s *spikeRate) PeakRate() units.BitRate { return s.highRate }
func (s *spikeRate) Reset(uint64) error      { return nil }
func (s *spikeRate) Segment(t units.Duration, cursor int) (units.BitRate, units.Duration, int) {
	if t < s.switchAt {
		return s.highRate, s.switchAt, cursor
	}
	return s.lowRate, units.Duration(math.Inf(1)), cursor
}
func (s *spikeRate) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	elapsed, bits := advanceTwoPhase(s.switchAt, s.highRate, s.lowRate, t, span, budget)
	return elapsed, bits, cursor
}

// TestRefillStepsOverDemandSpike feeds a deliberately inadmissible source,
// whose demand outruns the media rate for 200 ms, through one refill: the
// engine must step straight to the source's next rate change rather than
// slicing the interval, and every read/write step must move media-rate bits
// into the buffer, the spike included.
func TestRefillStepsOverDemandSpike(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	media := b.MediaRate()
	src := &spikeRate{
		switchAt: units.Duration(0.2),
		highRate: media.Scale(2),
		lowRate:  media.Scale(0.01),
	}
	buffer := 64 * units.KiB
	c := newSingleCore(b, src, buffer, 0.4)
	// Open a gap so the refill loop engages while the spike is still on.
	c.account(device.StateSeek, units.Duration(0.001), 0)
	stepsBefore := c.DeviceStats().Steps
	c.refillStream(0)
	if c.Level(0) != buffer {
		t.Fatalf("refill ended at %v, want full %v", c.Level(0), buffer)
	}
	if c.now < src.switchAt {
		t.Fatalf("refill finished at %v, before the spike ended at %v", c.now, src.switchAt)
	}
	// One step to the spike boundary plus a handful of refill steps, not
	// hundreds of slices.
	if got := c.DeviceStats().Steps - stepsBefore; got > 20 {
		t.Errorf("refill took %d steps across the spike; want a few event steps", got)
	}
	st := c.DeviceStats()
	rw := st.StateTime[device.StateReadWrite]
	if want := media.Times(rw); !almostEqual(st.MediaBits.Bits(), want.Bits(), 1e-12) {
		t.Errorf("refill credited %v over %v of read/write, want media rate x time = %v", st.MediaBits, rw, want)
	}
}

// TestRebufferEpisodesCollapseConsecutiveDrySteps checks the playback
// metrics: several consecutive dry accounting steps are one rebuffer
// episode, a recovery starts a new one, and the stalled time accumulates.
func TestRebufferEpisodesCollapseConsecutiveDrySteps(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	buffer := units.Size(1000)
	c := newSingleCore(b, cbrSource(t, 4096*units.Kbps), buffer, 0)
	if !c.DeviceStats().StartupDelay.Positive() {
		t.Error("startup delay missing")
	}
	wantStartup := b.PositioningTime().Add(b.MediaRate().TimeFor(buffer))
	if got := c.DeviceStats().StartupDelay; !almostEqual(got.Seconds(), wantStartup.Seconds(), 1e-12) {
		t.Errorf("startup delay %v, want %v", got, wantStartup)
	}

	// Two consecutive dry one-second steps: two underruns, one episode.
	c.account(device.StateSeek, units.Duration(1), 0)
	c.account(device.StateSeek, units.Duration(1), 0)
	st := c.DeviceStats()
	if st.Underruns != 2 || st.RebufferEpisodes != 1 {
		t.Errorf("underruns = %d, episodes = %d; want 2 dry steps in 1 episode", st.Underruns, st.RebufferEpisodes)
	}
	if !st.RebufferTime.Positive() {
		t.Error("rebuffer time missing")
	}
	// Recover, then stall again: a second episode.
	c.refillStream(0)
	c.account(device.StateSeek, units.Duration(0.0001), 0) // drains 410 bits: no stall
	c.account(device.StateSeek, units.Duration(1), 0)
	st = c.DeviceStats()
	if st.RebufferEpisodes != 2 {
		t.Errorf("episodes = %d after a recovery and a new stall, want 2", st.RebufferEpisodes)
	}
}

// TestCreditWriteCarriesInflation checks the best-effort crediting path:
// the write counts as user bits and its physical volume is inflated by the
// formatting overhead, exactly like refill writes.
func TestCreditWriteCarriesInflation(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	buffer := 20 * units.KiB
	c := newSingleCore(b, cbrSource(t, 1024*units.Kbps), buffer, 0.4)
	size := 4 * units.KiB
	c.creditWrites(c.streams[0], size)
	st := c.DeviceStats()
	if st.WrittenUserBits != size {
		t.Errorf("user bits = %v, want %v", st.WrittenUserBits, size)
	}
	want := size.Scale(b.WriteInflation(buffer))
	if !almostEqual(st.WrittenPhysicalBits.Bits(), want.Bits(), 1e-12) {
		t.Errorf("physical bits = %v, want the inflated %v", st.WrittenPhysicalBits, want)
	}
	if st.WrittenPhysicalBits <= st.WrittenUserBits {
		t.Error("inflation should exceed 1 for a 20 KiB sector")
	}
}

// TestTransitionDrainsAcrossRateChanges checks a seconds-long transition
// (the disk's spin-up) spanning a demand change: the positioning is one step
// that drains each phase at its own rate, not the whole transition at the
// rate it started with.
func TestTransitionDrainsAcrossRateChanges(t *testing.T) {
	d := device.Default18InchDisk()
	b := NewDisk(d)
	src := stepRate{switchAt: units.Duration(1), lowRate: 512 * units.Kbps, highRate: 2048 * units.Kbps}
	c := newSingleCore(b, src, 8*units.MB, 0.4)
	c.positioning(0) // spin-up + seek: 2.515 s from t = 0
	pos := b.PositioningTime()
	if !almostEqual(c.now.Seconds(), pos.Seconds(), 1e-12) {
		t.Fatalf("transition advanced %v, want %v", c.now, pos)
	}
	want := src.lowRate.Times(units.Duration(1)).
		Add(src.highRate.Times(pos.Sub(units.Duration(1))))
	if got := c.DeviceStats().StreamedBits; !almostEqual(got.Bits(), want.Bits(), 1e-9) {
		t.Errorf("drained %v during the transition, want the piecewise-exact %v", got, want)
	}
	if got := c.DeviceStats().StateTime[device.StateSeek]; !almostEqual(got.Seconds(), pos.Seconds(), 1e-12) {
		t.Errorf("seek residency %v, want %v", got, pos)
	}
	if got := c.DeviceStats().Steps; got != 1 {
		t.Errorf("the spin-up took %d steps, want one across the rate change", got)
	}
}

// TestDryStepStallsFromEmpty checks the stall of a step that runs a buffer
// dry: playback stops when the buffer empties, here after the demand's rate
// change, so the step stalls for the rest of it; a step that starts empty
// stalls throughout.
func TestDryStepStallsFromEmpty(t *testing.T) {
	src := stepRate{switchAt: units.Duration(1), lowRate: 512 * units.Kbps, highRate: 2048 * units.Kbps}
	buffer := units.Size(1e6)
	c := newSingleCore(NewMEMS(device.DefaultMEMS()), src, buffer, 0)
	// 512,000 bits drain before the switch, the other 488,000 at 2048 kbps:
	// the buffer empties 61/256 s after it, 1.23828125 s into a 2 s step.
	dt := units.Duration(2)
	empty := src.switchAt.Seconds() + (buffer.Bits()-src.lowRate.Times(src.switchAt).Bits())/src.highRate.BitsPerSecond()
	c.account(device.StateStandby, dt, -1)
	st := c.DeviceStats()
	if want := dt.Seconds() - empty; st.Underruns != 1 || st.RebufferTime.Seconds() != want {
		t.Errorf("%d underruns stalling %.17g s, want 1 stalling %.17g s", st.Underruns, st.RebufferTime.Seconds(), want)
	}
	if st.StreamedBits != buffer || c.Level(0) != 0 {
		t.Errorf("streamed %v leaving %v, want the whole %v and an empty buffer", st.StreamedBits, c.Level(0), buffer)
	}
	stalled := st.RebufferTime
	c.account(device.StateStandby, units.Duration(0.25), -1)
	if got := st.RebufferTime.Sub(stalled); st.Underruns != 2 || st.RebufferEpisodes != 1 || got != 0.25 {
		t.Errorf("a step from empty: %d underruns in %d episodes, stalled %v; want 2 in 1 and the whole 0.25 s", st.Underruns, st.RebufferEpisodes, got)
	}
}
