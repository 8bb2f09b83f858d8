package device

import (
	"errors"
	"fmt"

	"memstream/internal/units"
)

// DRAM models the streaming buffer in front of the storage device, following
// the structure of Micron technical note TN-46-03 ("Calculating Memory System
// Power for DDR"): a capacity-proportional background (refresh + standby)
// power plus a per-bit access energy for reads and writes.
//
// The buffers considered in the study are tiny (kilobytes), so a single
// partial-array self-refresh region of one mobile DDR die suffices; the
// background power is therefore scaled linearly with the fraction of the die
// kept alive, with a small floor for the always-on interface logic.
type DRAM struct {
	// Name labels the configuration in reports.
	Name string

	// DieCapacity is the capacity of one DRAM die.
	DieCapacity units.Size

	// DieBackgroundPower is the background (self-refresh plus standby logic)
	// power of a fully retained die.
	DieBackgroundPower units.Power

	// FloorPower is the minimum background power of the device regardless of
	// how little of the array is retained (interface and control logic).
	FloorPower units.Power

	// AccessEnergyPerBit is the energy to read or write one bit, covering
	// activate, burst access and precharge amortised over a burst.
	AccessEnergyPerBit units.EnergyPerBit
}

// DefaultDRAM returns a mobile LPDDR-class die model in line with the Micron
// TN-46-03 methodology: a 512 Mib die with ~1.5 mW full-array self-refresh
// background power and ~50 pJ/bit access energy.
func DefaultDRAM() DRAM {
	return DRAM{
		Name:               "Micron TN-46-03 mobile DDR model",
		DieCapacity:        512 * units.MiB / 8, // 512 Mibit die
		DieBackgroundPower: 1.5 * units.Milliwatt,
		FloorPower:         0.2 * units.Milliwatt,
		AccessEnergyPerBit: units.EnergyPerBit(50e-12),
	}
}

// BackgroundPower returns the retention power for a buffer of the given size.
// Only the fraction of the die needed to hold the buffer is retained
// (partial-array self-refresh), subject to the interface floor.
func (d DRAM) BackgroundPower(buffer units.Size) units.Power {
	if !buffer.Positive() || !d.DieCapacity.Positive() {
		return d.FloorPower
	}
	fraction := buffer.DivideBy(d.DieCapacity)
	if fraction > 1 {
		// Larger buffers need additional dies; background power scales with
		// the number of retained dies.
		fraction = float64(int(fraction)) + 1
	}
	p := d.DieBackgroundPower.Scale(fraction)
	if p < d.FloorPower {
		return d.FloorPower
	}
	return p
}

// AccessEnergy returns the energy to move the given amount of data into or out
// of the buffer once.
func (d DRAM) AccessEnergy(data units.Size) units.Energy {
	return d.AccessEnergyPerBit.Times(data)
}

// CycleEnergy returns the DRAM energy of one refill cycle of length cycleTime
// in which buffered bits enter the buffer once (written by the storage device)
// and leave it once (read by the decoder), plus best-effort traffic of the
// given size passing through it.
func (d *DRAM) CycleEnergy(buffer units.Size, cycleTime units.Duration, bestEffort units.Size) units.Energy {
	background := d.BackgroundPower(buffer).Times(cycleTime)
	streaming := d.AccessEnergy(buffer.Scale(2)) // in once, out once
	be := d.AccessEnergy(bestEffort.Scale(2))
	return background.Add(streaming).Add(be)
}

// Validate checks the configuration for internal consistency.
func (d DRAM) Validate() error {
	var errs []error
	if !d.DieCapacity.Positive() {
		errs = append(errs, errors.New("die capacity must be positive"))
	}
	// Every float check is written so that NaN fails it.
	if !(d.DieBackgroundPower >= 0 && d.FloorPower >= 0) {
		errs = append(errs, errors.New("background and floor power must be non-negative"))
	}
	if !(d.AccessEnergyPerBit >= 0) {
		errs = append(errs, errors.New("access energy must be non-negative"))
	}
	return errors.Join(errs...)
}

// String returns a one-line summary of the buffer model.
func (d DRAM) String() string {
	return fmt.Sprintf("%s: %v die, %v background", d.Name, d.DieCapacity, d.DieBackgroundPower)
}
