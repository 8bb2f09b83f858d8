package engine

// The unified scheduling core: one device servicing K concurrent streams,
// with the single-stream simulation as literally the K=1 case. Each stream
// owns a buffer drained by its own workload.Pattern; the device wakes when
// any buffer falls to its wake level, services the streams under a
// scheduling Policy — paying the backend's positioning transition before
// each stream, so inter-stream repositioning costs one seek per stream as in
// internal/multistream's plan — serves the best-effort backlog, tops off the
// stream it serviced last and shuts down again.
// MultiCore runs that cycle itself (Run) and carries per-stream Stats
// (streamed bits, underruns, playback metrics, attributed seek/transfer
// energy) alongside the aggregate device Stats; for K=1 the aggregate record
// is the single-stream statistics.

import (
	"math"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// StreamConfig describes one stream driven through a shared device.
type StreamConfig struct {
	// Source is the stream's demand.
	Source workload.Pattern
	// Buffer is the stream's dedicated buffer capacity.
	Buffer units.Size
	// WriteFraction is the share of the stream's traffic written to the
	// device (1 for a recording, 0 for pure playback).
	WriteFraction float64
	// Priority is the stream's service class under PolicyPriority: higher
	// values are serviced first within a wake-up. Other policies ignore it.
	Priority int
}

// streamState is the per-stream accounting of the core.
type streamState struct {
	source workload.Pattern
	// rate is the source's demand over its current segment, which ends at
	// segEnd (always after the core's clock); cursor is the source's hint
	// for the next segment.
	rate          units.BitRate
	segEnd        units.Duration
	cursor        int
	buffer        units.Size
	level         units.Size
	wakeLevel     units.Size
	inflation     float64
	writeFraction float64
	priority      int
	inRebuffer    bool
	stats         Stats
	// walked, drained and next hold the source's Advance over the standby
	// step drainToWake is taking.
	walked  units.Duration
	drained units.Size
	next    int
}

// loadSegment caches the source's segment holding time t.
func (st *streamState) loadSegment(t units.Duration) {
	st.rate, st.segEnd, st.cursor = st.source.Segment(t, st.cursor)
}

// drain removes drained bits of demand from the stream buffer, tracking
// underruns, rebuffer episodes and the minimum level in both the stream's own
// statistics and the aggregate device statistics. A step that runs the
// buffer dry stalls playback for stall, the part of the step after the
// buffer emptied.
func (st *streamState) drain(drained units.Size, stall units.Duration, dev *Stats) {
	st.level = st.level.Sub(drained)
	if st.level < 0 {
		st.stats.Underruns++
		dev.Underruns++
		st.stats.RebufferTime = st.stats.RebufferTime.Add(stall)
		dev.RebufferTime = dev.RebufferTime.Add(stall)
		if !st.inRebuffer {
			st.stats.RebufferEpisodes++
			dev.RebufferEpisodes++
			st.inRebuffer = true
		}
		drained = drained.Add(st.level) // only what was actually there
		st.level = 0
	} else {
		st.inRebuffer = false
	}
	st.stats.StreamedBits = st.stats.StreamedBits.Add(drained)
	dev.StreamedBits = dev.StreamedBits.Add(drained)
	if st.level < st.stats.MinBufferLevel {
		st.stats.MinBufferLevel = st.level
	}
}

// MultiCore is one simulated device: N stream buffers draining concurrently,
// one backend servicing them through the refill cycle that Run drives from
// wake-up to shutdown. A single-stream run is the K=1 case.
type MultiCore struct {
	streams []*streamState

	statePower      [device.NumStates]units.Power
	mediaRate       units.BitRate
	positioningTime units.Duration
	shutdownTime    units.Duration

	now    units.Duration
	device Stats
	// totalBuffer is the summed buffer capacity, the device-level occupancy
	// ceiling MinBufferLevel starts from.
	totalBuffer units.Size
	// order is the serviceOrder scratch, allocated once per core so the
	// per-round scheduling decision stays off the steady-state heap.
	order []int
	// arrivals draws the run's background requests as the clock reaches
	// them.
	arrivals workload.BestEffortArrivals
	// finished is set when Run completes and cleared by Reset, so a second
	// Run returns the same record instead of charging the run again.
	finished bool
}

// NewMultiCore builds a scheduling core: every buffer starts full. Wake
// levels are provisioned so that the last-serviced stream survives a full
// service round — all positionings plus every refill at peak demand — with a
// small safety margin; for a single stream the round is just the positioning
// transition, the paper's single-stream wake rule. It requires what
// internal/sim's validation guarantees: a positive media rate, and every
// source's PeakRate below it.
func NewMultiCore(b Backend, streams []StreamConfig) *MultiCore {
	m := &MultiCore{
		mediaRate:       b.MediaRate(),
		positioningTime: b.PositioningTime(),
		shutdownTime:    b.ShutdownTime(),
	}
	for s := 0; s < device.NumStates; s++ {
		m.statePower[s] = b.StatePower(device.PowerState(s))
	}

	for _, sc := range streams {
		st := &streamState{
			source:        sc.Source,
			buffer:        sc.Buffer,
			inflation:     b.WriteInflation(sc.Buffer),
			writeFraction: sc.WriteFraction,
			priority:      sc.Priority,
		}
		m.totalBuffer = m.totalBuffer.Add(sc.Buffer)
		m.streams = append(m.streams, st)
	}
	m.order = make([]int, len(m.streams))
	m.Reset()
	return m
}

// Reset rewinds the core to the state NewMultiCore builds for the same
// backend and streams: time zero, full buffers, fresh statistics, startup
// delays, wake levels provisioned against the sources' current peak demands
// and each stream's demand segment loaded at time zero. NewMultiCore ends
// with it. It allocates nothing, so re-seeded sources (whose realized peaks
// change with the seed) can be re-provisioned per run on the reset path.
// The sources themselves are not reset: a caller re-seeding stochastic
// sources resets them first, so the wake levels and segments see the new
// traces. NewMultiCore's precondition keeps every term finite.
func (m *MultiCore) Reset() {
	// The longest a full service round can take. A single stream only has to
	// survive the positioning transition before its own refill begins; with
	// several streams the round is one positioning per stream plus each
	// refill at the slowest net rate (media minus peak demand), so even the
	// last-serviced buffer holds out.
	serviceBound := m.positioningTime
	if len(m.streams) > 1 {
		serviceBound = m.positioningTime.Scale(float64(len(m.streams)))
		for _, st := range m.streams {
			serviceBound = serviceBound.Add(m.mediaRate.Sub(st.source.PeakRate()).TimeFor(st.buffer))
		}
	}

	m.now = 0
	m.finished = false
	startup := units.Duration(0)
	for _, st := range m.streams {
		st.level = st.buffer
		st.wakeLevel = st.source.PeakRate().Times(serviceBound).Scale(1.05)
		st.inRebuffer = false
		st.stats = Stats{MinBufferLevel: st.buffer}
		st.cursor = workload.NoCursor
		st.loadSegment(0)
		// Startup: the device positions to and fills each region in turn at
		// the media rate before any stream may start draining; stream i can
		// start once its own fill completes.
		startup = startup.Add(m.positioningTime).Add(m.mediaRate.TimeFor(st.buffer))
		st.stats.StartupDelay = startup
	}
	m.device = Stats{MinBufferLevel: m.totalBuffer}
	// The device-level startup delay is the time until every stream plays.
	m.device.StartupDelay = startup
}

// Cycle is the rule set Run applies to every refill cycle, whatever the
// number of streams.
type Cycle struct {
	// Policy selects the service order within a wake-up.
	Policy Policy
	// DRAM is the buffer memory. Every cycle is charged its retention for
	// the summed buffer capacity over the cycle and one pass of that summed
	// buffer in and out, as Eq. 1 and the shared-device plan
	// (multistream.System.At's CycleEnergy(plan.TotalBuffer, t, 0)) price a
	// cycle.
	DRAM device.DRAM
	// BestEffort is the background request process served after the
	// refills. A process with no positive share is never consulted.
	BestEffort workload.BestEffortProcess
}

// Run drives the refill cycle of Fig. 1b from time zero to end: standby
// until some stream's buffer falls to its wake level, position to and refill
// every stream in policy order, serve the best-effort backlog, top off the
// stream serviced last, shut down, and charge the cycle's DRAM energy. It
// then closes the records — every SimulatedTime and the best-effort DRAM
// charge — folds the run into the process-wide totals once and returns the
// device record, which the next Reset wipes. A core that has finished since
// its last Reset returns the same record unchanged. Run allocates nothing.
func (m *MultiCore) Run(c *Cycle, end units.Duration) (*Stats, error) {
	dev := &m.device
	if m.finished {
		return dev, nil
	}
	m.arrivals = workload.BestEffortArrivals{}
	if c.BestEffort.TargetFraction > 0 {
		var err error
		if m.arrivals, err = c.BestEffort.Arrivals(end); err != nil {
			return nil, err
		}
	}
	background := c.DRAM.BackgroundPower(m.totalBuffer)
	access := c.DRAM.AccessEnergy(m.totalBuffer.Scale(2))
	lastCycleEnd := units.Duration(0)
	for m.now < end {
		// Standby until some stream's buffer falls to its wake level.
		if m.drainToWake(device.StateStandby, end) < 0 {
			break
		}

		// One super-cycle: position to each stream region in policy order and
		// refill that stream to full, then serve queued best-effort work, top
		// off the stream serviced last (the device still stands on its region,
		// so no positioning), and shut down.
		order := m.serviceOrder(c.Policy)
		last := order[len(order)-1]
		for _, idx := range order {
			m.positioning(idx)
			m.refillStream(idx)
			m.streams[idx].stats.RefillCycles++
		}
		m.serveBestEffort(c, last)
		m.refillStream(last)
		m.shutdown()
		dev.RefillCycles++

		// DRAM energy for this cycle: retention for every buffer over the
		// cycle plus one pass of the summed buffer in and out.
		dev.DRAMEnergy = dev.DRAMEnergy.Add(background.Times(m.now.Sub(lastCycleEnd))).Add(access)
		lastCycleEnd = m.now
	}
	dev.SimulatedTime = m.now
	for _, st := range m.streams {
		st.stats.SimulatedTime = m.now
	}
	// Best-effort data passes through the buffer once in and once out.
	dev.DRAMEnergy = dev.DRAMEnergy.Add(c.DRAM.AccessEnergy(dev.BestEffortBits.Scale(2)))
	dev.recordRun()
	m.finished = true
	return dev, nil
}

// serveBestEffort serves the backlog: every queued request that has arrived
// by the time the device is free for it, drawn and credited in one call
// (workload.BestEffortArrivals.Serve). The whole backlog is then charged as
// one step, however many demand segments it spans; an empty backlog takes
// no step. Background writes wear the region of stream last, where the
// device stands, inflated by that region's formatting overhead. Like the
// other shared states they count on the device record only.
func (m *MultiCore) serveBestEffort(c *Cycle, last int) {
	d := &m.device
	end := m.arrivals.Serve(m.now, c.BestEffort.PositioningTime, c.BestEffort.ServiceRate, m.streams[last].inflation,
		&d.BestEffortBits, &d.BestEffortRequests, &d.WrittenUserBits, &d.WrittenPhysicalBits)
	m.account(device.StateBestEffort, end.Sub(m.now), -1)
}

// Level returns stream i's current buffer fill level.
func (m *MultiCore) Level(i int) units.Size { return m.streams[i].level }

// WakeLevel returns the buffer level at which stream i forces a wake-up.
func (m *MultiCore) WakeLevel(i int) units.Size { return m.streams[i].wakeLevel }

// DeviceStats exposes the aggregate statistics. Run fills every field but
// the ECC counters, which only a caller's error model writes.
func (m *MultiCore) DeviceStats() *Stats { return &m.device }

// StreamStats exposes stream i's statistics: its own traffic and wear, and
// the seek and transfer time spent servicing its buffer, which the device
// aggregate counts too. Shared states (standby, shutdown, best effort and
// the background writes it makes) appear only in the aggregate.
func (m *MultiCore) StreamStats(i int) *Stats { return &m.streams[i].stats }

// account records dt seconds in the given device state while every stream
// drains its buffer at its own demand. focus names the stream being serviced
// (its statistics receive the state time and energy too); pass -1 for shared
// states. A stream whose cached segment ends inside the step walks its
// demand across the segment ends (workload.Pattern's Advance); any other
// drains at its cached rate, Advance's own arithmetic within one segment. A
// stream that runs dry stalls from the moment its buffer empties.
func (m *MultiCore) account(state device.PowerState, dt units.Duration, focus int) {
	if dt <= 0 {
		return
	}
	for _, st := range m.streams {
		drained, cursor := st.rate.Times(dt), st.cursor
		if st.segEnd.Sub(m.now) < dt {
			_, drained, st.cursor = st.source.Advance(m.now, cursor, dt, units.Size(math.Inf(1)))
		}
		var stall units.Duration
		if drained > st.level {
			stall = dt
			if st.level.Positive() {
				empty, _, _ := st.source.Advance(m.now, cursor, dt, st.level)
				stall = dt.Sub(empty)
			}
		}
		st.drain(drained, stall, &m.device)
	}
	m.charge(state, dt, focus)
}

// charge closes a step of dt in the given state once every stream has
// drained over it: it advances the clock, books the state's time and energy
// (to the focused stream too), reloads the segment of every stream whose
// segment the step reached the end of, and tracks the device-level minimum
// occupancy.
func (m *MultiCore) charge(state device.PowerState, dt units.Duration, focus int) {
	m.now = m.now.Add(dt)
	m.device.Steps++
	energy := m.statePower[state].Times(dt)
	m.device.StateTime[state] = m.device.StateTime[state].Add(dt)
	m.device.StateEnergy[state] = m.device.StateEnergy[state].Add(energy)
	if focus >= 0 {
		fs := &m.streams[focus].stats
		fs.StateTime[state] = fs.StateTime[state].Add(dt)
		fs.StateEnergy[state] = fs.StateEnergy[state].Add(energy)
	}
	var total units.Size
	for _, st := range m.streams {
		total = total.Add(st.level)
		if st.segEnd <= m.now {
			st.loadSegment(m.now)
		}
	}
	if total < m.device.MinBufferLevel {
		m.device.MinBufferLevel = total
	}
}

// wokenStream returns the lowest-indexed stream at or below its wake level,
// or -1 when every buffer still has headroom.
func (m *MultiCore) wokenStream() int {
	for i, st := range m.streams {
		if st.level <= st.wakeLevel {
			return i
		}
	}
	return -1
}

// drainToWake stays in the given state until some stream's buffer falls to
// its wake level or the deadline passes. It returns the index of the stream
// that forced the wake-up, or -1 when the deadline arrived first. Each pass
// is one step however many rate changes it spans: every stream's pattern
// integrates its own demand across whole segments (workload.Pattern's
// Advance), the step ends at the earliest wake-up or at the deadline, and
// every stream drains to it. A zero-demand segment never ends the step.
func (m *MultiCore) drainToWake(state device.PowerState, deadline units.Duration) int {
	for m.now < deadline {
		if i := m.wokenStream(); i >= 0 {
			return i
		}
		span := deadline.Sub(m.now)
		var woken *streamState
		for _, st := range m.streams {
			st.walked, st.drained, st.next = st.source.Advance(m.now, st.cursor, span, st.level.Sub(st.wakeLevel))
			if st.walked < span {
				span, woken = st.walked, st
			}
		}
		// A stream whose walk ended at the step's end has drained it already;
		// the others walk again to that end with no budget. No stream drains
		// past its wake level, so none stalls.
		for _, st := range m.streams {
			if st.walked != span {
				st.walked, st.drained, st.next = st.source.Advance(m.now, st.cursor, span, units.Size(math.Inf(1)))
			}
			st.drain(st.drained, 0, &m.device)
			st.cursor = st.next
		}
		// The walk that set the span stopped on its budget: at the wake level.
		if woken != nil {
			woken.level = woken.wakeLevel
		}
		m.charge(state, span, -1)
	}
	return -1
}

// positioning runs the standby-to-active transition (or the inter-stream
// repositioning — the backend models both with the same transition) towards
// the given stream's region as one step, draining every buffer along the
// way.
func (m *MultiCore) positioning(focus int) {
	m.account(device.StateSeek, m.positioningTime, focus)
}

// shutdown runs the active-to-standby transition as one step.
func (m *MultiCore) shutdown() {
	m.account(device.StateShutdown, m.shutdownTime, -1)
}

// refillStream runs the device in the read/write state until stream focus's
// buffer is full, crediting its media bits and the write wear implied by its
// configured write fraction while every other stream keeps draining. Every
// step moves media-rate bits into the buffer and ends at the earlier of
// "full" and the end of the focused stream's own demand segment, where its
// net fill rate changes (positive, by NewMultiCore's precondition); the
// other streams drain across their segment ends inside the step.
func (m *MultiCore) refillStream(focus int) {
	st := m.streams[focus]
	media := m.mediaRate
	for st.level < st.buffer {
		level, now := st.level, m.now
		fill := media.Sub(st.rate).TimeFor(st.buffer.Sub(st.level))
		dt := min(fill, st.segEnd.Sub(m.now))
		transferred := media.Times(dt)
		m.device.MediaBits = m.device.MediaBits.Add(transferred)
		st.stats.MediaBits = st.stats.MediaBits.Add(transferred)
		m.creditWrites(st, transferred.Scale(st.writeFraction))
		// The refill and the drain happen concurrently: credit the incoming
		// data before accounting the drain so the net fill never reads as an
		// artificial underrun. The true occupancy minimum of a cycle occurs
		// at the end of the positioning, which account has already tracked.
		// A step its segment end did not trim ends full.
		st.level = st.level.Add(transferred)
		m.account(device.StateReadWrite, dt, focus)
		if dt == fill || st.level > st.buffer {
			st.level = st.buffer
		}
		// An iteration's step and outcome depend only on the focused level
		// and the clock. When neither moved (a sub-ulp remainder against a
		// large level or clock), every later iteration would repeat this one
		// forever, so the refill ends here.
		if st.level == level && m.now == now {
			return
		}
	}
}

// creditWrites attributes user bits a stream writes during its refill to its
// own and the device's wear, inflated by the stream region's formatting
// overhead (sectors sized to its own buffer, as in the closed-form
// shared-device model).
func (m *MultiCore) creditWrites(st *streamState, user units.Size) {
	if !user.Positive() {
		return
	}
	st.stats.WrittenUserBits = st.stats.WrittenUserBits.Add(user)
	m.device.WrittenUserBits = m.device.WrittenUserBits.Add(user)
	phys := user.Scale(st.inflation)
	st.stats.WrittenPhysicalBits = st.stats.WrittenPhysicalBits.Add(phys)
	m.device.WrittenPhysicalBits = m.device.WrittenPhysicalBits.Add(phys)
}
