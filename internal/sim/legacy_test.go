package sim

// This file preserves the original fixed-slice integration path of the
// simulator, reading its demand from Config.Spec, as the parity oracle for
// the event-driven engine: parity_test.go proves the engine reproduces its
// statistics within documented tolerance, and the benchmarks quantify the
// speedup of event stepping over slicing. It only supports the MEMS device
// (Config.Backend is ignored).

import (
	"fmt"

	"memstream/internal/device"
	"memstream/internal/ecc"
	"memstream/internal/format"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// slicedSimulator runs the refill-cycle state machine with fixed-slice
// integration of time-varying demand.
type slicedSimulator struct {
	cfg    Config
	layout format.Layout
	source workload.Pattern
	// variableRate marks demand that changes over time, requiring the drain
	// and refill integrations to proceed in small slices.
	variableRate bool
	rng          *workload.Rng

	// live state
	now      units.Duration
	level    units.Size
	arrivals workload.BestEffortArrivals
	stats    Stats
}

// newSliced builds a fixed-slice simulator from a validated configuration.
func newSliced(cfg Config) (*slicedSimulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	source, err := cfg.Spec.Pattern(cfg.Duration)
	if err != nil {
		return nil, err
	}
	var arrivals workload.BestEffortArrivals
	if cfg.BestEffort.TargetFraction > 0 {
		if arrivals, err = cfg.BestEffort.Arrivals(cfg.Duration); err != nil {
			return nil, err
		}
	}
	s := &slicedSimulator{
		cfg:          cfg,
		layout:       format.NewLayout(cfg.Device),
		source:       source,
		variableRate: cfg.Spec.Kind != workload.SpecCBR,
		rng:          workload.NewRng(cfg.Seed ^ 0xdeadbeefcafef00d),
		level:        cfg.Buffer,
		arrivals:     arrivals,
	}
	s.stats.MinBufferLevel = cfg.Buffer
	return s, nil
}

// rate samples the demand in effect now. The oracle keeps no cursor: every
// sample looks its segment up from scratch.
func (s *slicedSimulator) rate() units.BitRate {
	rate, _, _ := s.source.Segment(s.now, workload.NoCursor)
	return rate
}

// account records dt seconds in the given device state while the stream
// drains the buffer.
func (s *slicedSimulator) account(state device.PowerState, dt units.Duration) {
	if dt <= 0 {
		return
	}
	drained := s.rate().Times(dt)
	s.level = s.level.Sub(drained)
	if s.level < 0 {
		s.stats.Underruns++
		drained = drained.Add(s.level) // only what was actually there
		s.level = 0
	}
	s.stats.StreamedBits = s.stats.StreamedBits.Add(drained)
	if s.level < s.stats.MinBufferLevel {
		s.stats.MinBufferLevel = s.level
	}
	s.now = s.now.Add(dt)
	s.stats.StateTime[state] = s.stats.StateTime[state].Add(dt)
	s.stats.StateEnergy[state] = s.stats.StateEnergy[state].Add(s.cfg.Device.StatePower(state).Times(dt))
}

// drainInState stays in the given state until the buffer reaches the target
// level or the deadline passes, respecting VBR segment boundaries.
func (s *slicedSimulator) drainInState(state device.PowerState, target units.Size, deadline units.Duration) {
	// Integration slice for time-varying demand: half a video frame interval,
	// so that per-frame rate changes (25 fps traces) are resolved and the
	// left-endpoint sampling does not bias the drained volume.
	const step = 0.02 // seconds
	for s.level > target && s.now < deadline {
		rate := s.rate()
		if !rate.Positive() {
			break
		}
		dt := rate.TimeFor(s.level.Sub(target))
		if remaining := deadline.Sub(s.now); dt > remaining {
			dt = remaining
		}
		if s.variableRate && dt.Seconds() > step {
			dt = units.Duration(step)
		}
		s.account(state, dt)
	}
}

// refillToFull runs the device in the given active state until the buffer is
// full, crediting the transferred media bits.
func (s *slicedSimulator) refillToFull(state device.PowerState) {
	for s.level < s.cfg.Buffer {
		rate := s.rate()
		net := s.cfg.Device.MediaRate().Sub(rate)
		if net <= 0 {
			// The stream momentarily outruns the media rate; nothing refills.
			s.account(state, units.Duration(1e-3))
			continue
		}
		dt := net.TimeFor(s.cfg.Buffer.Sub(s.level))
		if s.variableRate && dt.Seconds() > 0.25 {
			dt = units.Duration(0.25)
		}
		transferred := s.cfg.Device.MediaRate().Times(dt)
		s.stats.MediaBits = s.stats.MediaBits.Add(transferred)
		s.creditWrites(transferred, s.cfg.Spec.WriteFraction)
		// The refill and the drain happen concurrently: credit the incoming
		// data before accounting the drain so the net fill never reads as an
		// artificial underrun. The true occupancy minimum of a cycle occurs
		// at the end of the seek, which account() has already tracked.
		s.level = s.level.Add(transferred)
		s.account(state, dt)
		if s.level > s.cfg.Buffer {
			s.level = s.cfg.Buffer
		}
	}
}

// creditWrites attributes the written fraction of transferred data to probe
// wear, inflated by the formatting overhead.
func (s *slicedSimulator) creditWrites(transferred units.Size, fraction float64) {
	userWritten := transferred.Scale(fraction)
	s.stats.WrittenUserBits = s.stats.WrittenUserBits.Add(userWritten)
	sector := s.layout.FormatSector(s.cfg.Buffer)
	inflation := 1.0
	if sector.UserBits.Positive() {
		inflation = sector.EffectiveBits.DivideBy(sector.UserBits)
	}
	s.stats.WrittenPhysicalBits = s.stats.WrittenPhysicalBits.Add(userWritten.Scale(inflation))
}

// serveBestEffort serves every queued request that has arrived by now.
func (s *slicedSimulator) serveBestEffort() {
	for req, ok := s.arrivals.Next(s.now); ok; req, ok = s.arrivals.Next(s.now) {
		serviceTime := s.cfg.BestEffort.ServiceTime(req.Size)
		s.account(device.StateBestEffort, serviceTime)
		s.stats.BestEffortBits = s.stats.BestEffortBits.Add(req.Size)
		s.stats.BestEffortRequests++
		if req.Write {
			// Same crediting as the event-driven path: user bits plus the
			// formatting inflation, so the parity oracle stays comparable.
			s.creditWrites(req.Size, 1)
		}
	}
}

// injectErrors exercises the ECC codec with the configured raw bit-error rate
// on a sample of codewords for this refill.
func (s *slicedSimulator) injectErrors() {
	if s.cfg.BitErrorRate <= 0 {
		return
	}
	expectedFlipsPerWord := s.cfg.BitErrorRate * float64(ecc.CodewordBits)
	for i := 0; i < eccSampleWords; i++ {
		word := s.rng.Uint64()
		cw := ecc.Encode(word)
		flips := poissonSample(s.rng, expectedFlipsPerWord)
		for f := 0; f < flips; f++ {
			pos := s.rng.Intn(ecc.CodewordBits)
			if pos < ecc.DataBits {
				cw = cw.FlipDataBit(pos)
			} else {
				cw = cw.FlipParityBit(pos - ecc.DataBits)
			}
		}
		decoded, corrected, err := ecc.Decode(cw)
		if err != nil {
			s.stats.ECCUncorrectable++
			continue
		}
		s.stats.ECCCorrected += corrected
		if flips == 0 && decoded != word {
			// This cannot happen with a correct codec; record it as an
			// uncorrectable event so tests would catch a regression.
			s.stats.ECCUncorrectable++
		}
	}
}

// run executes the fixed-slice simulation and returns the statistics.
func (s *slicedSimulator) run() (*Stats, error) {
	dev := s.cfg.Device
	end := s.cfg.Duration
	lastCycleEnd := units.Duration(0)
	// Wake the device early enough that the buffer survives the seek at the
	// current drain rate, with a small safety margin.
	for s.now < end {
		// Provision the wake threshold against the stream's peak rate so a
		// VBR rate jump during the seek cannot drain the buffer dry.
		wakeLevel := s.source.PeakRate().Times(dev.SeekTime).Scale(1.05)
		if wakeLevel >= s.cfg.Buffer {
			return nil, fmt.Errorf("sim: buffer %v cannot even cover the seek time at %v",
				s.cfg.Buffer, s.source.PeakRate())
		}

		// Standby while the buffer drains towards the wake level.
		s.drainInState(device.StateStandby, wakeLevel, end)
		if s.now >= end {
			break
		}

		// Seek back to the stream position.
		s.account(device.StateSeek, dev.SeekTime)

		// Refill to full, serve queued best-effort work, top off, shut down.
		s.refillToFull(device.StateReadWrite)
		s.serveBestEffort()
		s.refillToFull(device.StateReadWrite)
		s.injectErrors()
		s.account(device.StateShutdown, dev.ShutdownTime)

		s.stats.RefillCycles++

		// DRAM energy for this cycle: retention over the cycle plus one pass
		// in and one pass out for the refilled data (best-effort traffic is
		// accounted once at the end of the run).
		cycleTime := s.now.Sub(lastCycleEnd)
		s.stats.DRAMEnergy = s.stats.DRAMEnergy.
			Add(s.cfg.DRAM.BackgroundPower(s.cfg.Buffer).Times(cycleTime)).
			Add(s.cfg.DRAM.AccessEnergy(s.cfg.Buffer.Scale(2)))
		lastCycleEnd = s.now
	}
	s.stats.SimulatedTime = s.now
	// Best-effort data passes through the buffer once in and once out.
	s.stats.DRAMEnergy = s.stats.DRAMEnergy.Add(s.cfg.DRAM.AccessEnergy(s.stats.BestEffortBits.Scale(2)))
	return &s.stats, nil
}

// runLegacySliced runs cfg on the preserved fixed-slice path (MEMS only).
func runLegacySliced(cfg Config) (*Stats, error) {
	s, err := newSliced(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}
