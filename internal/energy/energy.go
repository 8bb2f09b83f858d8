// Package energy implements the energy model of the paper (Section III-A):
// the per-bit energy consumption of a MEMS storage device streaming through a
// DRAM buffer as a function of the buffer size (Eq. 1), the break-even buffer
// below which shutting down does not pay off, and the energy saving relative
// to an always-on device.
//
// The model follows the refill-cycle structure of Fig. 1b: every cycle of
// length Tm the device seeks, refills the buffer at the media rate, shuts
// down, and sits in standby while the buffer drains at the stream rate. The
// per-bit energy decomposes into an overhead term that amortises with the
// buffer size and transfer/standby terms that do not.
package energy

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/device"
	"memstream/internal/solve"
	"memstream/internal/units"
)

// ErrRateTooHigh is returned when the streaming rate is not sustainable by the
// device (it meets or exceeds the media rate, leaving no refill slack).
var ErrRateTooHigh = errors.New("energy: streaming rate must be below the media rate")

// ErrBufferTooSmall is returned when a cycle cannot be formed because the
// buffer does not even cover the mechanical overhead at the streaming rate.
var ErrBufferTooSmall = errors.New("energy: buffer too small to cover the refill overhead")

// Model evaluates the streaming energy of one MEMS device + DRAM buffer pair
// at one streaming bit rate.
type Model struct {
	// Device is the MEMS storage device.
	Device device.MEMS
	// Buffer is the DRAM in front of it.
	Buffer device.DRAM
	// StreamRate is rs, the net production/consumption rate of the
	// streaming application.
	StreamRate units.BitRate
	// BestEffortFraction is the fraction of each refill cycle the device
	// spends serving non-streaming (OS / file-system) requests; the paper
	// assumes 5 %.
	BestEffortFraction float64
	// IncludeDRAM controls whether DRAM retention/access energy is charged
	// to the buffered architecture. The paper includes it (and finds it
	// negligible); the ablation benchmark switches it off.
	IncludeDRAM bool
}

// New returns a Model for the given device, buffer and stream rate with the
// paper's default best-effort fraction of 5 % and DRAM energy included.
func New(m device.MEMS, d device.DRAM, rate units.BitRate) (Model, error) {
	model := Model{
		Device:             m,
		Buffer:             d,
		StreamRate:         rate,
		BestEffortFraction: 0.05,
		IncludeDRAM:        true,
	}
	if err := model.Validate(); err != nil {
		return Model{}, err
	}
	return model, nil
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	var errs []error
	if err := m.Device.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := m.Buffer.Validate(); err != nil {
		errs = append(errs, err)
	}
	if !m.StreamRate.Positive() {
		errs = append(errs, errors.New("energy: stream rate must be positive"))
	} else if m.StreamRate >= m.Device.MediaRate() {
		errs = append(errs, fmt.Errorf("%w: rs = %v, rm = %v", ErrRateTooHigh, m.StreamRate, m.Device.MediaRate()))
	}
	if m.BestEffortFraction < 0 || m.BestEffortFraction >= 1 {
		errs = append(errs, errors.New("energy: best-effort fraction must be in [0, 1)"))
	}
	return errors.Join(errs...)
}

// Cycle describes the timing of one refill cycle for a given buffer size
// (Fig. 1b of the paper).
type Cycle struct {
	// Buffer is the buffer size B the cycle was computed for.
	Buffer units.Size
	// Period is Tm, the full refill-cycle length.
	Period units.Duration
	// Transfer is tRW, the time the device spends refilling the buffer.
	Transfer units.Duration
	// Overhead is toh = tsk + tsd, the seek + shutdown transition time.
	Overhead units.Duration
	// BestEffort is the active time spent on non-streaming requests.
	BestEffort units.Duration
	// Standby is the remaining time spent shut down.
	Standby units.Duration
	// Refills per second follows directly from the period.
	RefillsPerSecond float64
}

// curve is Eq. 1 over the per-model constants of one validated Model. Each
// exported method that evaluates Eq. 1 validates the model and derives the
// constants once per call. The searches compare saving, a scalar built from
// the phases and per-bit terms that evaluate reports as a Cycle and a
// Breakdown: an evaluation builds neither record, sums the terms as scalars
// and reads the DRAM model through a pointer. Reordering any expression here
// moves results in the last bits; internal/core/testdata/analytic_golden.json
// pins them.
type curve struct {
	// rm is the media rate and rs the stream rate.
	rm, rs units.BitRate
	// net is rm − rs, the rate the buffer fills at during a refill.
	net units.BitRate
	// periodScale is rm/rs: Tm = tRW·rm/rs.
	periodScale float64
	// overhead is toh and bestEffort the best-effort fraction fbe.
	overhead   units.Duration
	bestEffort float64
	// standbyPower is Psb and overheadEnergy (Poh − Psb)·toh.
	standbyPower   units.Power
	overheadEnergy units.Energy
	// activeGap is Prw − Psb, the active power above standby.
	activeGap units.Power
	// idlePower is Pid and idleGap Prw − Pid, for the always-on reference.
	idlePower units.Power
	idleGap   units.Power

	dram        device.DRAM
	includeDRAM bool
}

// curve validates the model and derives its Eq. 1 constants.
func (m Model) curve() (curve, error) {
	if err := m.Validate(); err != nil {
		return curve{}, err
	}
	dev := m.Device
	rm := dev.MediaRate()
	rs := m.StreamRate
	psb := dev.StandbyPower
	overhead := dev.OverheadTime()
	return curve{
		rm:             rm,
		rs:             rs,
		net:            rm.Sub(rs),
		periodScale:    rm.BitsPerSecond() / rs.BitsPerSecond(),
		overhead:       overhead,
		bestEffort:     m.BestEffortFraction,
		standbyPower:   psb,
		overheadEnergy: dev.OverheadPower().Sub(psb).Times(overhead),
		activeGap:      dev.ReadWritePower.Sub(psb),
		idlePower:      dev.IdlePower,
		idleGap:        dev.ReadWritePower.Sub(dev.IdlePower),
		dram:           m.Buffer,
		includeDRAM:    m.IncludeDRAM,
	}, nil
}

// checkBuffer rejects a non-positive buffer size.
func checkBuffer(b units.Size) error {
	if !b.Positive() {
		return fmt.Errorf("%w: B = %v", ErrBufferTooSmall, b)
	}
	return nil
}

// timing returns the refill time tRW = B/(rm-rs) and the cycle length
// Tm = tRW*rm/rs for buffer size B.
func (c *curve) timing(b units.Size) (transfer, period units.Duration) {
	transfer = c.net.TimeFor(b)
	return transfer, transfer.Scale(c.periodScale)
}

// phases splits the refill cycle of buffer size B: the refill time, the
// cycle length, the best-effort time fbe·Tm and the standby time left after
// them and the overhead, negative when the cycle does not close.
func (c *curve) phases(b units.Size) (transfer, period, bestEffort, standby units.Duration) {
	transfer, period = c.timing(b)
	bestEffort = period.Scale(c.bestEffort)
	return transfer, period, bestEffort, period.Sub(transfer).Sub(c.overhead).Sub(bestEffort)
}

// cycle computes the refill-cycle timing for buffer size B.
func (c *curve) cycle(b units.Size) (Cycle, error) {
	if err := checkBuffer(b); err != nil {
		return Cycle{}, err
	}
	transfer, period, bestEffort, standby := c.phases(b)
	if standby < 0 {
		return Cycle{}, fmt.Errorf("%w: B = %v leaves no standby time at rs = %v",
			ErrBufferTooSmall, b, c.rs)
	}
	return Cycle{
		Buffer:           b,
		Period:           period,
		Transfer:         transfer,
		Overhead:         c.overhead,
		BestEffort:       bestEffort,
		Standby:          standby,
		RefillsPerSecond: 1 / period.Seconds(),
	}, nil
}

// terms evaluates Eq. 1 (plus the best-effort and DRAM extensions) over one
// closed refill cycle of buffer size B with the given phases, term by term.
// It returns scalars, not a Breakdown: the searches sum them directly.
func (c *curve) terms(b units.Size, transfer, period, bestEffort units.Duration) (overheadE, transferE, standbyE, bestEffortE, dramE units.EnergyPerBit) {
	var dram units.Energy
	if c.includeDRAM {
		dram = c.dram.CycleEnergy(b, period, c.rm.Times(bestEffort))
	}
	return c.overheadEnergy.PerBit(b), c.activeGap.Times(transfer).PerBit(b), c.standbyPower.Times(period).PerBit(b),
		c.activeGap.Times(bestEffort).PerBit(b), dram.PerBit(b)
}

// perBit returns the terms of buffer size B's refill cycle as a Breakdown.
func (c *curve) perBit(b units.Size, transfer, period, bestEffort units.Duration) Breakdown {
	o, t, s, be, d := c.terms(b, transfer, period, bestEffort)
	return Breakdown{Overhead: o, Transfer: t, Standby: s, BestEffort: be, DRAM: d}
}

// alwaysOnPerBit prices buffer size B on the always-on reference, given the
// refill time and cycle length timing returns for it.
func (c *curve) alwaysOnPerBit(b units.Size, transfer, period units.Duration) units.EnergyPerBit {
	transferE := c.idleGap.Times(transfer)
	baseE := c.idlePower.Times(period)
	return transferE.Add(baseE).PerBit(b)
}

// savingOver returns 1 − E/Eon for the buffered per-bit energy E of buffer
// size B with the given phases, and false when the always-on reference Eon
// is not positive.
func (c *curve) savingOver(buffered units.EnergyPerBit, b units.Size, transfer, period units.Duration) (float64, bool) {
	alwaysOn := c.alwaysOnPerBit(b, transfer, period)
	if alwaysOn <= 0 {
		return 0, false
	}
	return 1 - buffered.JoulesPerBit()/alwaysOn.JoulesPerBit(), true
}

// evaluate returns the per-bit breakdown and the saving over the always-on
// reference at buffer size B, from one refill cycle.
func (c *curve) evaluate(b units.Size) (Breakdown, float64, error) {
	cycle, err := c.cycle(b)
	if err != nil {
		return Breakdown{}, 0, err
	}
	buffered := c.perBit(b, cycle.Transfer, cycle.Period, cycle.BestEffort)
	saving, ok := c.savingOver(buffered.Total(), b, cycle.Transfer, cycle.Period)
	if !ok {
		return Breakdown{}, 0, errors.New("energy: always-on reference energy is not positive")
	}
	return buffered, saving, nil
}

// saving returns the saving evaluate reports at buffer size B, bit for bit,
// and false exactly where evaluate returns an error. The searches compare
// it; it builds no Cycle and no Breakdown.
func (c *curve) saving(b units.Size) (float64, bool) {
	if !b.Positive() {
		return 0, false
	}
	transfer, period, bestEffort, standby := c.phases(b)
	if standby < 0 {
		return 0, false
	}
	return c.savingOver(total(c.terms(b, transfer, period, bestEffort)), b, transfer, period)
}

// Cycle computes the refill-cycle timing for buffer size B (Eq. 1's timing
// relations: tRW = B/(rm-rs), Tm = B*rm/((rm-rs)*rs)).
func (m Model) Cycle(b units.Size) (Cycle, error) {
	c, err := m.curve()
	if err != nil {
		return Cycle{}, err
	}
	return c.cycle(b)
}

// MinimumBuffer returns the smallest buffer for which a refill cycle closes,
// i.e. the slack B/rs covers the mechanical overhead and the best-effort
// share of the cycle. Below this size the device cannot shut down at all.
func (m Model) MinimumBuffer() units.Size {
	return minimumBuffer(m.Device.MediaRate(), m.StreamRate, m.Device.OverheadTime(), m.BestEffortFraction)
}

// minimumBuffer is the smallest buffer whose refill cycle closes at the
// given media rate, stream rate, overhead time and best-effort fraction, or
// +Inf when none does.
func minimumBuffer(media, stream units.BitRate, overhead units.Duration, fbe float64) units.Size {
	rm, rs, toh := media.BitsPerSecond(), stream.BitsPerSecond(), overhead.Seconds()
	// Solve Tm - tRW - toh - fbe*Tm >= 0 with Tm = B*rm/((rm-rs)*rs) and
	// tRW = B/(rm-rs):
	//   B * [ rm*(1-fbe) - rs ] / ((rm-rs)*rs) >= toh.
	numerator := rm*(1-fbe) - rs
	if numerator <= 0 {
		return units.Size(math.Inf(1))
	}
	return units.Bit.Scale(toh * (rm - rs) * rs / numerator)
}

// Breakdown is the per-bit energy of one refill cycle split by cause.
type Breakdown struct {
	// Overhead is the seek + shutdown contribution (first term of Eq. 1).
	Overhead units.EnergyPerBit
	// Transfer is the media read/write contribution (second term of Eq. 1).
	Transfer units.EnergyPerBit
	// Standby is the baseline standby contribution (third term of Eq. 1).
	Standby units.EnergyPerBit
	// BestEffort is the extra active energy for non-streaming requests.
	BestEffort units.EnergyPerBit
	// DRAM is the buffer retention and access energy.
	DRAM units.EnergyPerBit
}

// Total returns the summed per-bit energy.
func (b Breakdown) Total() units.EnergyPerBit {
	return total(b.Overhead, b.Transfer, b.Standby, b.BestEffort, b.DRAM)
}

// total sums the per-bit terms in Breakdown order.
func total(overheadE, transferE, standbyE, bestEffortE, dramE units.EnergyPerBit) units.EnergyPerBit {
	return overheadE + transferE + standbyE + bestEffortE + dramE
}

// PerBit evaluates Eq. 1 (plus the best-effort and DRAM extensions) for the
// given buffer size.
func (m Model) PerBit(b units.Size) (Breakdown, error) {
	c, err := m.curve()
	if err != nil {
		return Breakdown{}, err
	}
	cycle, err := c.cycle(b)
	if err != nil {
		return Breakdown{}, err
	}
	return c.perBit(b, cycle.Transfer, cycle.Period, cycle.BestEffort), nil
}

// AlwaysOnPerBit returns the per-bit energy of the always-on reference: the
// same device refilling at the media rate but never seeking or shutting down
// and idling between refills. Only a pass-through buffer is needed, so no
// DRAM retention energy is charged.
//
// Best-effort (OS/file-system) activity is deliberately not charged to this
// reference: it exists in both architectures, but in the always-on device it
// is served from the already-idle state at negligible attributable cost,
// whereas in the shutdown architecture it is what keeps the device awake and
// therefore appears as an explicit term of PerBit. This accounting reproduces
// the paper's observation that the 80 % saving target becomes unreachable
// slightly above 1000 kbps (Fig. 3a).
func (m Model) AlwaysOnPerBit(b units.Size) (units.EnergyPerBit, error) {
	c, err := m.curve()
	if err != nil {
		return 0, err
	}
	if err := checkBuffer(b); err != nil {
		return 0, err
	}
	transfer, period := c.timing(b)
	return c.alwaysOnPerBit(b, transfer, period), nil
}

// Saving returns the relative energy saving of the buffered, shutdown-capable
// architecture over the always-on reference for buffer size B:
// 1 - Em(B)/Eon. Negative values mean the buffer is too small for shutdown to
// pay off.
func (m Model) Saving(b units.Size) (float64, error) {
	c, err := m.curve()
	if err != nil {
		return 0, err
	}
	_, saving, err := c.evaluate(b)
	return saving, err
}

// SavingCurve validates the model once and returns its saving curve: for a
// buffer size B, the breakdown PerBit reports and the saving Saving reports,
// bit for bit and with the same errors, without validating the model again.
// A search over buffer sizes should evaluate through it. The function must
// not be called when err is non-nil.
//
// SavingCurve is small enough to inline, so the curve it returns stays on
// the caller's stack: keep it that way, or every search allocates.
func (m Model) SavingCurve() (func(units.Size) (Breakdown, float64, error), error) {
	c, err := m.curve()
	return c.evaluate, err
}

// MaxSaving returns the largest achievable energy saving over all buffer
// sizes together with the buffer size that achieves it. The saving curve
// rises steeply while the overhead amortises and then flattens (and
// eventually droops once DRAM retention grows), so a golden-section search on
// the unimodal curve suffices.
func (m Model) MaxSaving() (saving float64, buffer units.Size, err error) {
	c, err := m.curve()
	if err != nil {
		return 0, 0, err
	}
	return c.maxSaving()
}

// BufferForSaving returns the smallest buffer whose saving reaches the
// target, to a relative tolerance of 1e-9, or a zero size and the reason no
// buffer does. It is the MEMS counterpart of DiskModel.BufferForSaving. The
// saving curve rises up to the maximiser MaxSaving finds and only droops
// beyond it once DRAM retention dominates, so the threshold search runs on
// the rising part, on the curve the maximum was found on. A target of zero
// returns about the break-even buffer, where shutting down starts to pay
// off.
func (m Model) BufferForSaving(target float64) (b units.Size, reason string, err error) {
	if err := checkTarget(target); err != nil {
		return 0, "", err
	}
	c, err := m.curve()
	if err != nil {
		return 0, "", err
	}
	maxSaving, best, err := c.maxSaving()
	if err != nil {
		return 0, "", err
	}
	if target > maxSaving {
		return 0, fmt.Sprintf("maximum achievable saving at %v is %.1f%%, below the %.1f%% target",
			c.rs, 100*maxSaving, 100*target), nil
	}
	lo := c.minimumBuffer().Bits() * (1 + 1e-9)
	hi := best.Bits()
	if hi <= lo {
		hi = c.searchCeiling().Bits()
	}
	bBits, err := solve.MinimumWhere(func(bBits float64) bool {
		s, ok := c.saving(units.Bit.Scale(bBits))
		return ok && s >= target
	}, lo, hi, 1e-9)
	if err != nil {
		return 0, fmt.Sprintf("no buffer up to %v reaches a %.1f%% saving", units.Bit.Scale(hi), 100*target), nil
	}
	return units.Bit.Scale(bBits), "", nil
}

// minimumBuffer is MinimumBuffer on the curve's constants.
func (c *curve) minimumBuffer() units.Size {
	return minimumBuffer(c.rm, c.rs, c.overhead, c.bestEffort)
}

// searchCeiling bounds the buffer sizes the searches consider: ten seconds
// of media-rate traffic is far beyond any practically interesting streaming
// buffer for this device class.
func (c *curve) searchCeiling() units.Size {
	return c.rm.Times(10 * units.Second)
}

// maxSaving is MaxSaving on the validated curve.
func (c *curve) maxSaving() (float64, units.Size, error) {
	lo := c.minimumBuffer().Bits()
	hi := c.searchCeiling().Bits()
	if math.IsInf(lo, 1) || lo >= hi {
		return 0, 0, fmt.Errorf("%w: no admissible buffer size", ErrBufferTooSmall)
	}
	x, fx := solve.MaximizeUnimodal(func(bBits float64) float64 {
		s, ok := c.saving(units.Bit.Scale(bBits))
		if !ok {
			return math.Inf(-1)
		}
		return s
	}, lo, hi, 1e-7)
	return fx, units.Bit.Scale(x), nil
}

// BreakEvenBuffer returns the buffer size at which shutting down over the
// idle gap costs exactly as much as staying idle (Section III-A.1). Below
// this size the device should not shut down at all. The closed form follows
// from equating E_oh + Psb*(B/rs - toh) with Pid*B/rs:
//
//	B_be = rs * (Eoh - Psb*toh) / (Pid - Psb).
func (m Model) BreakEvenBuffer() (units.Size, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	d := m.Device
	return breakEvenBuffer(d.OverheadEnergy(), d.OverheadTime(), d.IdlePower, d.StandbyPower, m.StreamRate)
}

// MechanicalDevice is the minimal view of a mechanical storage device needed
// to compute its break-even buffer: the shutdown/restart overhead and the
// idle-versus-standby power gap.
type MechanicalDevice interface {
	OverheadEnergy() units.Energy
	OverheadTime() units.Duration
	IdleStandbyPowers() (idle, standby units.Power)
}

// DiskBreakEvenAdapter adapts a Disk to the MechanicalDevice view so that the
// same break-even formula can be applied to the 1.8-inch baseline.
type DiskBreakEvenAdapter struct{ Disk device.Disk }

// OverheadEnergy returns the spin-down plus spin-up energy.
func (a DiskBreakEvenAdapter) OverheadEnergy() units.Energy { return a.Disk.OverheadEnergy() }

// OverheadTime returns the spin-down plus spin-up time.
func (a DiskBreakEvenAdapter) OverheadTime() units.Duration { return a.Disk.OverheadTime() }

// IdleStandbyPowers returns the drive's idle and standby power.
func (a DiskBreakEvenAdapter) IdleStandbyPowers() (units.Power, units.Power) {
	return a.Disk.IdlePower, a.Disk.StandbyPower
}

// MEMSBreakEvenAdapter adapts a MEMS device to the MechanicalDevice view.
type MEMSBreakEvenAdapter struct{ Device device.MEMS }

// OverheadEnergy returns the seek plus shutdown energy.
func (a MEMSBreakEvenAdapter) OverheadEnergy() units.Energy { return a.Device.OverheadEnergy() }

// OverheadTime returns the seek plus shutdown time.
func (a MEMSBreakEvenAdapter) OverheadTime() units.Duration { return a.Device.OverheadTime() }

// IdleStandbyPowers returns the device's idle and standby power.
func (a MEMSBreakEvenAdapter) IdleStandbyPowers() (units.Power, units.Power) {
	return a.Device.IdlePower, a.Device.StandbyPower
}

// BreakEvenBuffer computes the break-even streaming buffer of any mechanical
// storage device at the given stream rate.
func BreakEvenBuffer(dev MechanicalDevice, rate units.BitRate) (units.Size, error) {
	idle, standby := dev.IdleStandbyPowers()
	return breakEvenBuffer(dev.OverheadEnergy(), dev.OverheadTime(), idle, standby, rate)
}

// breakEvenBuffer is the break-even formula on the device's shutdown
// overhead, its idle and standby powers and the stream rate.
func breakEvenBuffer(overheadEnergy units.Energy, overheadTime units.Duration, idle, standby units.Power, rate units.BitRate) (units.Size, error) {
	if !rate.Positive() {
		return 0, errors.New("energy: stream rate must be positive")
	}
	gap := idle.Sub(standby)
	if gap <= 0 {
		return 0, errors.New("energy: idle power must exceed standby power")
	}
	surplus := overheadEnergy.Sub(standby.Times(overheadTime))
	if surplus < 0 {
		surplus = 0
	}
	breakEvenTime := surplus.TimeAt(gap)
	return rate.Times(breakEvenTime), nil
}
