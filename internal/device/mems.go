// Package device provides parametric models of the storage hardware that the
// memstream study is built on: the MEMS probe-storage device itself, the
// 1.8-inch disk drive used as the mechanical-storage baseline, and the DRAM
// buffer placed in front of either device.
//
// Each model is a plain parameter struct plus derived-quantity methods. The
// defaults reproduce Table I of the paper (the IBM millipede-class prototype)
// and the Micron TN-46-03 DDR power model respectively.
package device

import (
	"errors"
	"fmt"

	"memstream/internal/units"
)

// PowerState identifies one of the operating states of a mechanical storage
// device during a streaming refill cycle.
type PowerState int

// The power states of a mechanical storage device, in the order they are
// visited during a refill cycle (Fig. 1b of the paper).
const (
	// StateSeek is the sled repositioning before a refill.
	StateSeek PowerState = iota
	// StateReadWrite is the actual media transfer during a refill.
	StateReadWrite
	// StateShutdown is the transition from active to standby.
	StateShutdown
	// StateStandby is the deep low-power state between refills.
	StateStandby
	// StateIdle is the ready-but-not-transferring state of an always-on device.
	StateIdle
	// StateBestEffort is media activity spent on non-streaming (OS/FS) requests.
	StateBestEffort
	numStates
)

// String returns the conventional name of the state.
func (s PowerState) String() string {
	switch s {
	case StateSeek:
		return "seek"
	case StateReadWrite:
		return "read/write"
	case StateShutdown:
		return "shutdown"
	case StateStandby:
		return "standby"
	case StateIdle:
		return "idle"
	case StateBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("PowerState(%d)", int(s))
	}
}

// NumStates is the number of distinct power states.
const NumStates = int(numStates)

// MEMS describes a MEMS probe-storage device. The zero value is not useful;
// start from DefaultMEMS (Table I) and adjust fields as needed.
type MEMS struct {
	// Name labels the configuration in reports.
	Name string

	// ProbeArrayRows and ProbeArrayCols give the physical probe-array
	// dimensions (Table I: 64 x 64).
	ProbeArrayRows int
	ProbeArrayCols int

	// ActiveProbes is the number of probes that operate in parallel
	// (Table I: 1024). A sector is striped across this many probes.
	ActiveProbes int

	// ProbeFieldWidth and ProbeFieldHeight give the per-probe storage field
	// dimensions in metres (Table I: 100 um x 100 um).
	ProbeFieldWidth  float64
	ProbeFieldHeight float64

	// Capacity is the raw formatted capacity of the device.
	Capacity units.Size

	// PerProbeRate is the sustained data rate of a single probe.
	PerProbeRate units.BitRate

	// SeekTime is the time to reposition the sled before a refill.
	SeekTime units.Duration
	// ShutdownTime is the time to transition into standby.
	ShutdownTime units.Duration
	// IOOverheadTime is the controller/interface overhead per refill.
	IOOverheadTime units.Duration

	// ReadWritePower is drawn while transferring data.
	ReadWritePower units.Power
	// SeekPower is drawn while seeking.
	SeekPower units.Power
	// StandbyPower is drawn in the deep low-power state.
	StandbyPower units.Power
	// IdlePower is drawn while ready but not transferring.
	IdlePower units.Power
	// ShutdownPower is drawn during the shutdown transition.
	ShutdownPower units.Power

	// ProbeWriteCycles is the number of times a probe can overwrite the full
	// device before wearing out (Dpb in the paper; 100 for current tips,
	// 200 for the improved-tip scenario).
	ProbeWriteCycles float64

	// SpringDutyCycles is the number of seek/shutdown cycles the springs
	// sustain (Dsp; 1e8 for electroplated nickel, 1e12 for silicon).
	SpringDutyCycles float64

	// SyncBitsPerSubsector is the number of synchronisation bits stored
	// between consecutive subsectors (3 in the paper, equivalent to a 30 us
	// processing window at the per-probe rate).
	SyncBitsPerSubsector int

	// ECCFraction is the ratio of ECC bits to user bits within a sector
	// (1/8 for the modelled device, in line with the IBM figures).
	ECCFraction float64
}

// DefaultMEMS returns the Table I configuration of the modelled device
// with nickel springs (1e8 duty cycles) and 100 probe write cycles.
func DefaultMEMS() MEMS {
	return MEMS{
		Name:                 "IBM-class MEMS prototype (Table I)",
		ProbeArrayRows:       64,
		ProbeArrayCols:       64,
		ActiveProbes:         1024,
		ProbeFieldWidth:      100e-6,
		ProbeFieldHeight:     100e-6,
		Capacity:             120 * units.GB,
		PerProbeRate:         100 * units.Kbps,
		SeekTime:             2 * units.Millisecond,
		ShutdownTime:         1 * units.Millisecond,
		IOOverheadTime:       2 * units.Millisecond,
		ReadWritePower:       316 * units.Milliwatt,
		SeekPower:            672 * units.Milliwatt,
		StandbyPower:         5 * units.Milliwatt,
		IdlePower:            120 * units.Milliwatt,
		ShutdownPower:        672 * units.Milliwatt,
		ProbeWriteCycles:     100,
		SpringDutyCycles:     1e8,
		SyncBitsPerSubsector: 3,
		ECCFraction:          1.0 / 8.0,
	}
}

// ImprovedMEMS returns the Fig. 3c improved-durability scenario: the
// Table I device with 200 probe write cycles and silicon springs rated at
// 1e12 duty cycles. It is the single definition of those parameters; the
// public facade and the service layer both resolve "improved" through it.
func ImprovedMEMS() MEMS {
	return DefaultMEMS().WithDurability(200, 1e12)
}

// WithDurability returns a copy of the device with the given probe write-cycle
// and spring duty-cycle ratings, used for the Fig. 3c improved-durability
// scenario (ImprovedMEMS).
func (m MEMS) WithDurability(probeWriteCycles, springDutyCycles float64) MEMS {
	m.ProbeWriteCycles = probeWriteCycles
	m.SpringDutyCycles = springDutyCycles
	return m
}

// MediaRate returns the aggregate media transfer rate rm: the per-probe rate
// multiplied by the number of active probes (102.4 Mbps for Table I).
func (m MEMS) MediaRate() units.BitRate {
	return m.PerProbeRate.Scale(float64(m.ActiveProbes))
}

// OverheadTime returns toh = tsk + tsd, the per-cycle mechanical overhead of
// shutting the device down and bringing it back (Eq. 1).
func (m MEMS) OverheadTime() units.Duration {
	return m.SeekTime.Add(m.ShutdownTime)
}

// OverheadEnergy returns Eoh = Esk + Esd, the energy spent in the per-cycle
// seek and shutdown transitions.
func (m MEMS) OverheadEnergy() units.Energy {
	seek := m.SeekPower.Times(m.SeekTime)
	shutdown := m.ShutdownPower.Times(m.ShutdownTime)
	return seek.Add(shutdown)
}

// OverheadPower returns Poh = Eoh / toh, the average power over the overhead
// interval.
func (m MEMS) OverheadPower() units.Power {
	toh := m.OverheadTime()
	if !toh.Positive() {
		return 0
	}
	return m.OverheadEnergy().DividedBy(toh)
}

// StatePower returns the power drawn in the given state.
func (m MEMS) StatePower(s PowerState) units.Power {
	switch s {
	case StateSeek:
		return m.SeekPower
	case StateReadWrite, StateBestEffort:
		return m.ReadWritePower
	case StateShutdown:
		return m.ShutdownPower
	case StateStandby:
		return m.StandbyPower
	case StateIdle:
		return m.IdlePower
	default:
		return 0
	}
}

// TotalProbes returns the number of probes in the physical array.
func (m MEMS) TotalProbes() int { return m.ProbeArrayRows * m.ProbeArrayCols }

// Validate checks the configuration for internal consistency.
func (m MEMS) Validate() error {
	var errs []error
	if m.ActiveProbes <= 0 {
		errs = append(errs, errors.New("active probes must be positive"))
	}
	if m.ProbeArrayRows <= 0 || m.ProbeArrayCols <= 0 {
		errs = append(errs, errors.New("probe array dimensions must be positive"))
	}
	if m.ActiveProbes > m.TotalProbes() {
		errs = append(errs, fmt.Errorf("active probes (%d) exceed array size (%d)",
			m.ActiveProbes, m.TotalProbes()))
	}
	if !m.Capacity.Positive() {
		errs = append(errs, errors.New("capacity must be positive"))
	}
	if !m.PerProbeRate.Positive() {
		errs = append(errs, errors.New("per-probe rate must be positive"))
	}
	if !m.SeekTime.Positive() || !m.ShutdownTime.Positive() {
		errs = append(errs, errors.New("seek and shutdown times must be positive"))
	}
	// Every float check is written so that NaN fails it.
	if !(m.ReadWritePower > 0 && m.SeekPower > 0 && m.ShutdownPower > 0) {
		errs = append(errs, errors.New("active-state powers must be positive"))
	}
	if !(m.StandbyPower >= 0 && m.IdlePower > 0) {
		errs = append(errs, errors.New("standby power must be non-negative and idle power positive"))
	}
	if !(m.IdlePower > m.StandbyPower) {
		errs = append(errs, errors.New("idle power must exceed standby power for shutdown to ever pay off"))
	}
	if !(m.ProbeWriteCycles > 0) {
		errs = append(errs, errors.New("probe write cycles must be positive"))
	}
	if !(m.SpringDutyCycles > 0) {
		errs = append(errs, errors.New("spring duty cycles must be positive"))
	}
	if m.SyncBitsPerSubsector < 0 {
		errs = append(errs, errors.New("sync bits per subsector must be non-negative"))
	}
	if !(m.ECCFraction >= 0 && m.ECCFraction < 1) {
		errs = append(errs, errors.New("ECC fraction must be in [0, 1)"))
	}
	return errors.Join(errs...)
}

// String returns a one-line summary of the device.
func (m MEMS) String() string {
	return fmt.Sprintf("%s: %v raw, %d probes at %v (rm = %v)",
		m.Name, m.Capacity, m.ActiveProbes, m.PerProbeRate, m.MediaRate())
}
