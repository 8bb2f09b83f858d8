package energy

import (
	"errors"
	"fmt"

	"memstream/internal/device"
	"memstream/internal/units"
)

// DiskModel applies the same refill-cycle energy analysis to the 1.8-inch
// disk baseline: the drive fills the buffer at its media rate, spins down,
// and waits in standby while the buffer drains. It exists so the comparison
// of Section III-A.1 can be carried beyond the break-even buffer — the study's
// point is precisely that for the disk the energy requirement dwarfs the
// capacity and lifetime requirements, whereas for MEMS it does not.
type DiskModel struct {
	// Disk is the drive being modelled.
	Disk device.Disk
	// StreamRate is rs.
	StreamRate units.BitRate
	// BestEffortFraction is the share of each cycle spent on non-streaming
	// requests (kept for symmetry with the MEMS model).
	BestEffortFraction float64
}

// NewDiskModel builds a disk streaming-energy model.
func NewDiskModel(d device.Disk, rate units.BitRate) (DiskModel, error) {
	m := DiskModel{Disk: d, StreamRate: rate, BestEffortFraction: 0.05}
	if err := m.Validate(); err != nil {
		return DiskModel{}, err
	}
	return m, nil
}

// Validate checks the model parameters.
func (m DiskModel) Validate() error {
	var errs []error
	if err := m.Disk.Validate(); err != nil {
		errs = append(errs, err)
	}
	if !m.StreamRate.Positive() {
		errs = append(errs, errors.New("energy: stream rate must be positive"))
	} else if m.StreamRate >= m.Disk.MediaRate {
		errs = append(errs, fmt.Errorf("%w: rs = %v, disk media rate = %v",
			ErrRateTooHigh, m.StreamRate, m.Disk.MediaRate))
	}
	if m.BestEffortFraction < 0 || m.BestEffortFraction >= 1 {
		errs = append(errs, errors.New("energy: best-effort fraction must be in [0, 1)"))
	}
	return errors.Join(errs...)
}

// curve validates the model and derives the disk's Eq. 1 constants: the
// overhead toh is spin-down, spin-up and the average seek back to the
// stream, its energy is theirs net of standby over toh, and the disk's
// megabyte-scale buffers carry no DRAM term.
func (m DiskModel) curve() (curve, error) {
	if err := m.Validate(); err != nil {
		return curve{}, err
	}
	d := m.Disk
	rm, rs, psb := d.MediaRate, m.StreamRate, d.StandbyPower
	overhead := d.OverheadTime().Add(d.SeekTime)
	return curve{
		rm:             rm,
		rs:             rs,
		net:            rm.Sub(rs),
		periodScale:    rm.BitsPerSecond() / rs.BitsPerSecond(),
		overhead:       overhead,
		bestEffort:     m.BestEffortFraction,
		standbyPower:   psb,
		overheadEnergy: d.OverheadEnergy().Add(d.SeekPower.Times(d.SeekTime)).Sub(psb.Times(overhead)),
		activeGap:      d.ReadWritePower.Sub(psb),
		idlePower:      d.IdlePower,
		idleGap:        d.ReadWritePower.Sub(d.IdlePower),
	}, nil
}

// MinimumBuffer returns the smallest buffer for which a spin-down cycle
// closes: the slack must cover the spin-down/spin-up overhead, the average
// seek back to the stream, and the best-effort share of the cycle.
func (m DiskModel) MinimumBuffer() units.Size {
	toh := m.Disk.OverheadTime().Add(m.Disk.SeekTime)
	return minimumBuffer(m.Disk.MediaRate, m.StreamRate, toh, m.BestEffortFraction)
}

// PerBit returns the per-bit energy of the shutdown (spin-down) architecture
// for buffer size B, in the same decomposition as the MEMS model.
func (m DiskModel) PerBit(b units.Size) (Breakdown, error) {
	c, err := m.curve()
	if err != nil {
		return Breakdown{}, err
	}
	if b < m.MinimumBuffer() {
		return Breakdown{}, fmt.Errorf("%w: B = %v below the disk cycle minimum %v",
			ErrBufferTooSmall, b, m.MinimumBuffer())
	}
	// The disk keeps its cycle-minimum check and message above, so it splits
	// the cycle here instead of through curve.cycle's standby check.
	transfer, period, bestEffort, _ := c.phases(b)
	return c.perBit(b, transfer, period, bestEffort), nil
}

// AlwaysOnPerBit returns the per-bit energy of the never-spun-down reference.
func (m DiskModel) AlwaysOnPerBit(b units.Size) (units.EnergyPerBit, error) {
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

// Saving returns the relative energy saving of spinning down over staying on.
func (m DiskModel) Saving(b units.Size) (float64, error) {
	buffered, err := m.PerBit(b)
	if err != nil {
		return 0, err
	}
	on, err := m.AlwaysOnPerBit(b)
	if err != nil {
		return 0, err
	}
	if on <= 0 {
		return 0, errors.New("energy: always-on reference energy is not positive")
	}
	return 1 - buffered.Total().JoulesPerBit()/on.JoulesPerBit(), nil
}

// BreakEvenBuffer returns the disk's break-even streaming buffer.
func (m DiskModel) BreakEvenBuffer() (units.Size, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return BreakEvenBuffer(DiskBreakEvenAdapter{Disk: m.Disk}, m.StreamRate)
}

// BufferForSaving returns the smallest buffer achieving the target energy
// saving, or an error wrapping ErrNoSaving if the target is unreachable.
var ErrNoSaving = errors.New("energy: saving target unreachable")

// checkTarget rejects a saving target outside [0, 1), NaN included.
func checkTarget(target float64) error {
	if !(target >= 0 && target < 1) {
		return fmt.Errorf("energy: saving target %.3f out of range [0, 1)", target)
	}
	return nil
}

// BufferForSaving inverts the disk saving curve by doubling the buffer from
// the cycle minimum until the target is met (the curve is monotone; DRAM
// retention is not modelled for the disk's megabyte-scale buffers because the
// paper only uses the disk as a break-even reference).
func (m DiskModel) BufferForSaving(target float64) (units.Size, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if err := checkTarget(target); err != nil {
		return 0, err
	}
	b := m.MinimumBuffer().Scale(1.0001)
	limit := m.Disk.MediaRate.Times(600 * units.Second)
	var lastBelow units.Size
	for b <= limit {
		s, err := m.Saving(b)
		if err != nil {
			return 0, err
		}
		if s >= target {
			// Refine between the last known miss and this hit.
			lo := lastBelow
			if lo == 0 {
				lo = m.MinimumBuffer()
			}
			hi := b
			for i := 0; i < 60 && hi.Sub(lo).Bits() > 1; i++ {
				mid := lo.Add(hi.Sub(lo).Scale(0.5))
				sm, err := m.Saving(mid)
				if err != nil || sm < target {
					lo = mid
				} else {
					hi = mid
				}
			}
			return hi, nil
		}
		lastBelow = b
		b = b.Scale(2)
	}
	return 0, fmt.Errorf("%w: %.1f%% at %v", ErrNoSaving, 100*target, m.StreamRate)
}
