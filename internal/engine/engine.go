// Package engine is the event-driven simulation core behind the simulators
// (internal/sim) and, through them, the service layer: the
// wake/seek/refill/shutdown cycle machinery of Fig. 1b, accounting per-state
// time and energy against a pluggable device Backend. It only simulates: the
// closed forms of the model live in internal/energy, internal/lifetime and
// internal/multistream, and the wear projections of a run's Stats evaluate
// Eqs. 5 and 6 through internal/lifetime.
//
// There is one scheduling core, MultiCore, and it runs the cycle itself:
// K stream buffers drain concurrently while the device wakes, services them
// under a Policy, serves the best-effort backlog, tops off the stream it
// serviced last and shuts down again, and MultiCore.Run charges each cycle's
// DRAM energy and closes the run's record. A Cycle value carries the run's
// policy, DRAM and best-effort process. The cycle rule is the same for every
// K, so a single-stream run is exactly the K=1 case, and wake provisioning,
// refill accounting, write-wear inflation, the cycle loop and the
// reset-in-place machinery exist once. Nothing in the engine depends on
// which simulator drives it; the one place the stream count matters is the
// wake provisioning's service round, which for one stream is the
// positioning transition alone.
//
// The engine advances time by next-event stepping, not by fixed slices, and
// no step has to stop at a rate change. Each stream caches its current
// demand segment (the rate and where it ends, read with one Segment call):
// over a step that ends inside that segment it drains at the cached rate,
// and across a step that passes the segment's end its workload.Pattern
// integrates the demand over whole segments (Advance). A standby is one step
// that ends at the earliest stream's wake-up or at the deadline, and the
// positioning, the best-effort backlog and the shutdown are one step each.
// Every refill step moves media-rate bits and ends at a full buffer or, if
// earlier, at its own stream's segment end; admission keeps every peak below
// the media rate, so the net fill rate is positive. So piecewise-constant
// demand — CBR, VBR segments, per-frame video and user traces — is
// integrated exactly, also while the device serves best-effort traffic.
// Steps end exactly on the boundaries they are solved for (a wake level, a
// full buffer), so a one-stream cycle is four steps, plus two per non-empty
// best-effort backlog (with its top-off) and one per end of the stream's own
// demand segment crossed during a refill: exactly four or six for CBR.
//
// Two device backends are provided: the MEMS probe store of Table I
// (NewMEMS) and the 1.8-inch disk baseline of Section III-A.1 (NewDisk), so
// the paper's break-even comparison can be validated end to end by
// simulation rather than only by the closed forms of internal/energy.
package engine

import (
	"memstream/internal/device"
	"memstream/internal/lifetime"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Backend is the device model driven through the refill cycle: power per
// state, the two mechanical transitions of a cycle, the media rate, and the
// write-wear inflation of the formatted layout. device.MEMS and device.Disk
// are adapted to it by NewMEMS and NewDisk.
type Backend interface {
	// Name labels the backend in reports.
	Name() string
	// Validate checks the underlying device parameters; every simulated
	// backend is validated before a run, exactly as the MEMS device always
	// was.
	Validate() error
	// MediaRate is the sustained transfer rate while refilling.
	MediaRate() units.BitRate
	// PositioningTime is the standby-to-active transition before a refill
	// (MEMS: the sled seek; disk: spin-up plus an average seek). It is
	// accounted under device.StateSeek.
	PositioningTime() units.Duration
	// ShutdownTime is the active-to-standby transition after a refill,
	// accounted under device.StateShutdown.
	ShutdownTime() units.Duration
	// StatePower returns the power drawn in the given cycle state.
	StatePower(device.PowerState) units.Power
	// WriteInflation returns the physical-to-user write amplification for
	// wear accounting when sectors are sized to the given buffer (1 for
	// devices without a modelled formatting overhead).
	WriteInflation(buffer units.Size) float64
}

// Stats accumulates everything observed during a run. internal/sim re-exports
// it as sim.Stats (and the public facade as memstream.SimStats).
type Stats struct {
	// SimulatedTime is the wall-clock time covered by the run.
	SimulatedTime units.Duration
	// StateTime is the residency per device power state.
	StateTime [device.NumStates]units.Duration
	// StateEnergy is the device energy per power state.
	StateEnergy [device.NumStates]units.Energy
	// DRAMEnergy is the buffer retention plus access energy.
	DRAMEnergy units.Energy
	// StreamedBits is the data delivered to (or taken from) the application.
	StreamedBits units.Size
	// MediaBits is the data moved between the device and the buffer for the
	// stream (excludes best-effort traffic).
	MediaBits units.Size
	// BestEffortBits is the best-effort data served.
	BestEffortBits units.Size
	// WrittenUserBits is the user data written to the device.
	WrittenUserBits units.Size
	// WrittenPhysicalBits includes the formatting overhead actually written.
	WrittenPhysicalBits units.Size
	// RefillCycles counts completed seek-refill-shutdown cycles.
	RefillCycles int
	// BestEffortRequests counts served background requests.
	BestEffortRequests int
	// Underruns counts the accounting steps in which the buffer ran dry, one
	// per dry step — an integration-granularity diagnostic, not a
	// user-visible event count (several consecutive dry steps are one
	// playback stall; see RebufferEpisodes). Only a refill stops at a
	// demand-segment end, so a stream that starves across a best-effort
	// backlog counts one underrun for it however many segments it crosses.
	Underruns int
	// RebufferEpisodes counts distinct playback stalls: maximal runs of dry
	// accounting steps, the paper-relevant "rebuffering events per run"
	// metric a player would surface.
	RebufferEpisodes int
	// RebufferTime is the total playback time lost to stalls: for each dry
	// step, the part of the step after the buffer emptied, all of it when
	// the step starts empty.
	RebufferTime units.Duration
	// StartupDelay is the modelled playback start-up latency: the device
	// positions and fills the buffer once at the media rate before the
	// stream may start draining it. The simulated run itself starts with a
	// full buffer, so this is derived at construction, not observed.
	StartupDelay units.Duration
	// MinBufferLevel is the lowest buffer fill level observed.
	MinBufferLevel units.Size
	// ECCCorrected counts single-bit errors repaired by the codec.
	ECCCorrected int
	// ECCUncorrectable counts codewords the codec had to give up on.
	ECCUncorrectable int
	// Steps counts the accounting steps that advanced time: the event count
	// of the run. A one-stream cycle is four, plus two per non-empty
	// best-effort backlog (with its top-off) and one per end of the stream's
	// own demand segment crossed during a refill. It is deterministic for a
	// given configuration and feeds the engine totals mirrored at /metricsz.
	Steps int
}

// DeviceEnergy returns the total energy drawn by the storage device.
func (s *Stats) DeviceEnergy() units.Energy {
	var total units.Energy
	for _, e := range s.StateEnergy {
		total = total.Add(e)
	}
	return total
}

// TotalEnergy returns device plus DRAM energy.
func (s *Stats) TotalEnergy() units.Energy {
	return s.DeviceEnergy().Add(s.DRAMEnergy)
}

// PerBitEnergy returns the total energy per streamed bit.
func (s *Stats) PerBitEnergy() units.EnergyPerBit {
	return s.TotalEnergy().PerBit(s.StreamedBits)
}

// AverageDevicePower returns the mean device power over the run.
func (s *Stats) AverageDevicePower() units.Power {
	return s.DeviceEnergy().DividedBy(s.SimulatedTime)
}

// RefillsPerSecond returns the observed refill-cycle frequency.
func (s *Stats) RefillsPerSecond() float64 {
	if !s.SimulatedTime.Positive() {
		return 0
	}
	return float64(s.RefillCycles) / s.SimulatedTime.Seconds()
}

// DutyCycle returns the fraction of time the device was active (not in
// standby).
func (s *Stats) DutyCycle() float64 {
	if !s.SimulatedTime.Positive() {
		return 0
	}
	active := s.SimulatedTime.Sub(s.StateTime[device.StateStandby])
	return active.Seconds() / s.SimulatedTime.Seconds()
}

// ProjectedSpringsLifetime extrapolates the observed seek/shutdown frequency
// to the springs duty-cycle rating (Eq. 5) under the given playback calendar.
func (s *Stats) ProjectedSpringsLifetime(dev device.MEMS, cal workload.PlaybackCalendar) units.Duration {
	return lifetime.Springs(dev, s.RefillsPerSecond()*cal.SecondsPerYear().Seconds())
}

// ProjectedProbesLifetime extrapolates the observed physical write volume to
// the probes write-cycle rating (Eq. 6) under the given playback calendar.
func (s *Stats) ProjectedProbesLifetime(dev device.MEMS, cal workload.PlaybackCalendar) units.Duration {
	if !s.SimulatedTime.Positive() {
		return 0
	}
	writtenPerSecond := s.WrittenPhysicalBits.Bits() / s.SimulatedTime.Seconds()
	return lifetime.Probes(dev, units.Bit.Scale(writtenPerSecond*cal.SecondsPerYear().Seconds()))
}
