package engine

import (
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// accessOnlyDRAM charges access energy only, so a run's DRAM total is the
// sum of its access charges.
func accessOnlyDRAM() device.DRAM {
	d := device.DefaultDRAM()
	d.DieBackgroundPower, d.FloorPower = 0, 0
	return d
}

// levelProbe wraps a demand pattern and records the budget of the engine's
// first standby walk after each refill cycle: the stream's level above its
// wake level as the standby opens. A walk that starts where the previous one
// ended continues a standby (the first, or one another stream's rounding
// split) and is not recorded.
type levelProbe struct {
	workload.Pattern
	walkedTo units.Duration
	opened   []units.Size
}

func (p *levelProbe) Advance(t units.Duration, cursor int, span units.Duration, budget units.Size) (units.Duration, units.Size, int) {
	if t > p.walkedTo {
		p.opened = append(p.opened, budget)
	}
	elapsed, bits, next := p.Pattern.Advance(t, cursor, span, budget)
	p.walkedTo = t.Add(elapsed)
	return elapsed, bits, next
}

// checkCycleRule checks a finished round-robin run against the one
// refill-cycle rule, whatever the stream count. The stream serviced last is
// the last one, whose source is probe:
//   - background writes wear its region: the device's writes beyond the
//     streams' own are inflated by its write inflation;
//   - every cycle is charged one pass of the summed buffer in and out, and
//     the best-effort data one more (c.DRAM must charge access energy only);
//   - it ends every cycle full, so it opens every standby after a cycle at
//     its buffer less what the shutdown drained.
func checkCycleRule(t *testing.T, m *MultiCore, c *Cycle, dev *Stats, probe *levelProbe) {
	t.Helper()
	var user, physical units.Size
	for i := range m.streams {
		user = user.Add(m.StreamStats(i).WrittenUserBits)
		physical = physical.Add(m.StreamStats(i).WrittenPhysicalBits)
	}
	last := m.streams[len(m.streams)-1]
	background := dev.WrittenUserBits.Sub(user)
	if want := background.Scale(last.inflation); !background.Positive() ||
		!almostEqual(dev.WrittenPhysicalBits.Sub(physical).Bits(), want.Bits(), 1e-9) {
		t.Errorf("background writes: %v user, %v physical; want positive and %v physical with the last stream's inflation",
			background, dev.WrittenPhysicalBits.Sub(physical), want)
	}
	want := c.DRAM.AccessEnergy(m.totalBuffer.Scale(2)).Scale(float64(dev.RefillCycles)).
		Add(c.DRAM.AccessEnergy(dev.BestEffortBits.Scale(2)))
	if !almostEqual(dev.DRAMEnergy.Joules(), want.Joules(), 1e-9) {
		t.Errorf("DRAM energy = %v, want %v for one summed-buffer pass per cycle", dev.DRAMEnergy, want)
	}
	full := last.buffer.Sub(last.rate.Times(m.shutdownTime)).Sub(last.wakeLevel)
	for i, budget := range probe.opened {
		if !almostEqual(budget.Bits(), full.Bits(), 1e-12) {
			t.Errorf("the last stream opened standby %d at %v above its wake level, want %v: it did not end cycle %d full",
				i+1, budget, full, i+1)
		}
	}
	if n := len(probe.opened); n < dev.RefillCycles-1 || n > dev.RefillCycles {
		t.Errorf("the last stream opened %d standbys after %d cycles", n, dev.RefillCycles)
	}
}

// TestRunClosesEveryRecordOnce drives a two-stream core through Run: the
// records close consistently, the cycles follow the one refill-cycle rule
// (checkCycleRule), and the run is recorded once. A second Run returns the
// same record, and a Reset replays the run bit for bit, best-effort draws
// included.
func TestRunClosesEveryRecordOnce(t *testing.T) {
	probe := &levelProbe{Pattern: cbrSource(t, 512*units.Kbps)}
	m := NewMultiCore(NewMEMS(device.DefaultMEMS()), []StreamConfig{
		{Source: cbrSource(t, 1024*units.Kbps), Buffer: 128 * units.KB},
		{Source: probe, Buffer: 64 * units.KB, WriteFraction: 1},
	})
	c := &Cycle{
		Policy:     PolicyRoundRobin,
		DRAM:       accessOnlyDRAM(),
		BestEffort: workload.NewBestEffortProcess(0.05, m.mediaRate, 1),
	}
	end := 2 * units.Minute
	before := Totals()
	dev, err := m.Run(c, end)
	if err != nil {
		t.Fatal(err)
	}
	first := *dev
	after := Totals()

	if dev.SimulatedTime < end || dev.RefillCycles == 0 || dev.BestEffortRequests == 0 {
		t.Fatalf("run ended at %v after %d cycles and %d best-effort requests",
			dev.SimulatedTime, dev.RefillCycles, dev.BestEffortRequests)
	}
	var inStates units.Duration
	for _, d := range dev.StateTime {
		inStates = inStates.Add(d)
	}
	if !almostEqual(inStates.Seconds(), dev.SimulatedTime.Seconds(), 1e-12) {
		t.Errorf("state times sum to %v over a %v run", inStates, dev.SimulatedTime)
	}
	for i := 0; i < 2; i++ {
		st := m.StreamStats(i)
		if st.RefillCycles != dev.RefillCycles || st.SimulatedTime != dev.SimulatedTime {
			t.Errorf("stream %d: %d refills over %v, want %d over %v",
				i, st.RefillCycles, st.SimulatedTime, dev.RefillCycles, dev.SimulatedTime)
		}
	}
	checkCycleRule(t, m, c, dev, probe)
	if after.Runs-before.Runs != 1 || after.Steps-before.Steps != uint64(dev.Steps) {
		t.Errorf("totals moved by %d runs and %d steps, want 1 and %d",
			after.Runs-before.Runs, after.Steps-before.Steps, dev.Steps)
	}

	again, err := m.Run(c, end)
	if err != nil {
		t.Fatal(err)
	}
	if again != dev || *again != first || Totals() != after {
		t.Error("a second Run on a finished core changed the record or the totals")
	}
	m.Reset()
	replay, err := m.Run(c, end)
	if err != nil {
		t.Fatal(err)
	}
	if *replay != first {
		t.Errorf("replay after Reset diverged:\n got %+v\nwant %+v", *replay, first)
	}
}

// TestRunSingleStreamRule checks the one refill-cycle rule at K=1, where it
// is the single-stream rule: background writes wear the stream's own region
// but count on the device record only, every cycle is charged one full
// buffer pass in and out, and the stream is topped off after the backlog.
func TestRunSingleStreamRule(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	probe := &levelProbe{Pattern: cbrSource(t, 1024*units.Kbps)}
	m := newSingleCore(b, probe, 64*units.KiB, 0.4)
	c := &Cycle{
		Policy:     PolicyRoundRobin,
		DRAM:       accessOnlyDRAM(),
		BestEffort: workload.NewBestEffortProcess(0.05, b.MediaRate(), 1),
	}
	dev, err := m.Run(c, units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dev.RefillCycles == 0 || dev.BestEffortRequests < dev.RefillCycles {
		t.Fatalf("%d refill cycles served %d best-effort requests; want a backlog in most cycles",
			dev.RefillCycles, dev.BestEffortRequests)
	}
	st := m.StreamStats(0)
	if want := st.MediaBits.Scale(0.4); !almostEqual(st.WrittenUserBits.Bits(), want.Bits(), 1e-12) {
		t.Errorf("the stream record wrote %v, want only its own %v", st.WrittenUserBits, want)
	}
	checkCycleRule(t, m, c, dev, probe)
}

// TestRunRejectsInvalidBestEffort checks that a best-effort process Run
// cannot draw from is an error, not a silent run without background work.
func TestRunRejectsInvalidBestEffort(t *testing.T) {
	m := newTestMultiCore(t)
	c := &Cycle{Policy: PolicyRoundRobin, DRAM: device.DefaultDRAM(),
		BestEffort: workload.BestEffortProcess{TargetFraction: 0.05}}
	if _, err := m.Run(c, units.Minute); err == nil {
		t.Error("Run accepted a best-effort process without a size or service rate")
	}
}

// TestBestEffortBacklogIsOneStep checks that a single 1024 kbps CBR stream
// through 64 KiB at 5 % best effort takes at most six accounting steps per
// refill cycle, plus the closing standby: the standby drain, the
// positioning, the refill, the backlog, the top-off and the shutdown. A step
// per background request would take about 17.
func TestBestEffortBacklogIsOneStep(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	m := newSingleCore(b, cbrSource(t, 1024*units.Kbps), 64*units.KiB, 0)
	c := &Cycle{
		Policy:     PolicyRoundRobin,
		DRAM:       device.DefaultDRAM(),
		BestEffort: workload.NewBestEffortProcess(0.05, b.MediaRate(), 1),
	}
	dev, err := m.Run(c, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if dev.RefillCycles == 0 || dev.BestEffortRequests < dev.RefillCycles {
		t.Fatalf("%d refill cycles served %d best-effort requests; want a backlog in most cycles",
			dev.RefillCycles, dev.BestEffortRequests)
	}
	if dev.Steps > 6*dev.RefillCycles+1 {
		t.Errorf("%d steps over %d refill cycles, want at most 6 per cycle and the closing standby",
			dev.Steps, dev.RefillCycles)
	}
}

// TestBestEffortBacklogDrainsAcrossRateChanges checks that a backlog spanning
// a rate change drains each side at its own rate, in one step.
func TestBestEffortBacklogDrainsAcrossRateChanges(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	src := stepRate{switchAt: units.Duration(1), lowRate: 512 * units.Kbps, highRate: 2048 * units.Kbps}
	m := newSingleCore(b, src, 8*units.MB, 0)
	c := &Cycle{BestEffort: workload.NewBestEffortProcess(0.5, b.MediaRate(), 1)}
	var err error
	if m.arrivals, err = c.BestEffort.Arrivals(units.Minute); err != nil {
		t.Fatal(err)
	}
	// Let requests queue for 0.9 s. At a 50 % share the backlog keeps
	// growing while it is served, so it starts before the switch and ends
	// well after it.
	start := units.Duration(0.9)
	m.account(device.StateStandby, start, -1)
	before := *m.DeviceStats()
	m.serveBestEffort(c, 0)
	dev := m.DeviceStats()
	if m.now <= src.switchAt {
		t.Fatalf("backlog of %d requests ended at %v, before the rate change at %v",
			dev.BestEffortRequests, m.now, src.switchAt)
	}
	if steps := dev.Steps - before.Steps; steps != 1 {
		t.Errorf("backlog took %d steps, want one across the segment end", steps)
	}
	if got, want := dev.StateTime[device.StateBestEffort], m.now.Sub(start); !almostEqual(got.Seconds(), want.Seconds(), 1e-12) {
		t.Errorf("best-effort residency %v, want the backlog's %v", got, want)
	}
	want := src.lowRate.Times(src.switchAt.Sub(start)).Add(src.highRate.Times(m.now.Sub(src.switchAt)))
	if got := dev.StreamedBits.Sub(before.StreamedBits); !almostEqual(got.Bits(), want.Bits(), 1e-12) {
		t.Errorf("drained %.17g bits during the backlog, want the piecewise-exact %.17g", got.Bits(), want.Bits())
	}
}

// TestStandbyIsOneStep checks that a standby is one engine step however many
// demand segments it spans. Ten minutes of 1024 kbps video through 128 KiB,
// one frame every 40 ms, take four steps per refill cycle plus one per frame
// end crossed during a refill, 4.27 per cycle measured, so at most 4.3 (a
// step at every frame end outside standby measured 4.35, and a step per
// frame about 30). A three-stream core, two step sources and a
// VBR stream with quarter-second segments, wakes at the wake-up time of its
// earliest stream computed by hand, segment by segment, after crossing
// seven rate changes in one step.
func TestStandbyIsOneStep(t *testing.T) {
	b := NewMEMS(device.DefaultMEMS())
	video, err := workload.VideoSpec(1024*units.Kbps, 1).Pattern(10 * units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m := newSingleCore(b, video, 128*units.KiB, 0.4)
	dev, err := m.Run(&Cycle{Policy: PolicyRoundRobin, DRAM: device.DefaultDRAM()}, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if perCycle := float64(dev.Steps) / float64(dev.RefillCycles); dev.RefillCycles == 0 || perCycle > 4.3 {
		t.Errorf("%d steps over %d refill cycles (%.2f per cycle), want at most 4.3", dev.Steps, dev.RefillCycles, perCycle)
	}

	vbrSpec := workload.VBRSpec(1536*units.Kbps, 3)
	vbrSpec.SegmentLength = 250 * units.Millisecond
	vbr, err := vbrSpec.Pattern(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	steps := []stepRate{
		{switchAt: units.Duration(0.3), lowRate: 256 * units.Kbps, highRate: 1024 * units.Kbps},
		{switchAt: units.Duration(0.7), lowRate: 128 * units.Kbps, highRate: 512 * units.Kbps},
	}
	buffer := 256 * units.KiB
	c := NewMultiCore(b, []StreamConfig{{Source: steps[0], Buffer: buffer}, {Source: steps[1], Buffer: buffer}, {Source: vbr, Buffer: buffer}})
	// Each stream's wake-up: the time its demand drains buffer − wake level.
	wakeAt := make([]float64, 3)
	for i, s := range steps {
		budget := buffer.Sub(c.WakeLevel(i)).Bits()
		if low := s.lowRate.Times(s.switchAt).Bits(); budget <= low {
			wakeAt[i] = budget / s.lowRate.BitsPerSecond()
		} else {
			wakeAt[i] = s.switchAt.Seconds() + (budget-low)/s.highRate.BitsPerSecond()
		}
	}
	budget, crossed := buffer.Sub(c.WakeLevel(2)).Bits(), 0
	for at, cursor := units.Duration(0), workload.NoCursor; ; crossed++ {
		rate, end, next := vbr.Segment(at, cursor)
		if whole := rate.Times(end.Sub(at)).Bits(); whole < budget {
			budget -= whole
			at, cursor = end, next
			continue
		}
		wakeAt[2] = at.Seconds() + budget/rate.BitsPerSecond()
		break
	}
	if wakeAt[2] >= wakeAt[0] || wakeAt[2] <= steps[1].switchAt.Seconds() || crossed < 5 {
		t.Fatalf("wake-ups at %v s after %d VBR segment ends; the VBR stream must wake first after both switches", wakeAt, crossed)
	}
	if woken := c.drainToWake(device.StateStandby, units.Hour); woken != 2 {
		t.Errorf("stream %d woke the device, want the VBR stream 2 (wake-ups at %v s)", woken, wakeAt)
	}
	if !almostEqual(c.now.Seconds(), wakeAt[2], 1e-12) {
		t.Errorf("woke at %.17g s, want %.17g s", c.now.Seconds(), wakeAt[2])
	}
	if got := c.DeviceStats().Steps; got != 1 {
		t.Errorf("standby took %d steps across %d rate changes, want one", got, crossed+2)
	}
}
