package device

import (
	"errors"
	"fmt"

	"memstream/internal/units"
)

// Disk describes a small-form-factor hard disk drive. It is used only as the
// mechanical-storage baseline of the study: the paper compares the break-even
// buffer of the MEMS device against that of a 1.8-inch drive (Section III-A.1)
// and observes a difference of three orders of magnitude.
//
// The default parameters are chosen to give a spin-down break-even time of
// roughly 18.5 s, reproducing the paper's quoted 0.08-9.29 MB break-even
// buffer range over 32-4096 kbps (see DESIGN.md, substitutions table).
type Disk struct {
	// Name labels the configuration in reports.
	Name string

	// Capacity is the formatted capacity.
	Capacity units.Size

	// MediaRate is the sustained media transfer rate.
	MediaRate units.BitRate

	// SpinUpTime is the time to spin the platters back up and reload the heads.
	SpinUpTime units.Duration
	// SpinDownTime is the time to unload the heads and stop the spindle.
	SpinDownTime units.Duration
	// SeekTime is an average seek.
	SeekTime units.Duration

	// ReadWritePower is drawn while transferring data.
	ReadWritePower units.Power
	// SpinUpPower is drawn while spinning up.
	SpinUpPower units.Power
	// SpinDownPower is drawn while spinning down.
	SpinDownPower units.Power
	// SeekPower is drawn while seeking.
	SeekPower units.Power
	// IdlePower is drawn with the spindle rotating but no transfer.
	IdlePower units.Power
	// StandbyPower is drawn with the spindle stopped.
	StandbyPower units.Power

	// LoadUnloadCycles is the head load/unload duty-cycle rating
	// (about 1e5 for 1.8-inch mobile drives, per the paper).
	LoadUnloadCycles float64
}

// Default18InchDisk returns the 1.8-inch mobile drive baseline.
func Default18InchDisk() Disk {
	return Disk{
		Name:             "1.8-inch mobile disk drive",
		Capacity:         80 * units.GB,
		MediaRate:        250 * units.Mbps,
		SpinUpTime:       2500 * units.Millisecond,
		SpinDownTime:     500 * units.Millisecond,
		SeekTime:         15 * units.Millisecond,
		ReadWritePower:   1400 * units.Milliwatt,
		SpinUpPower:      2300 * units.Milliwatt,
		SpinDownPower:    300 * units.Milliwatt,
		SeekPower:        1600 * units.Milliwatt,
		IdlePower:        400 * units.Milliwatt,
		StandbyPower:     100 * units.Milliwatt,
		LoadUnloadCycles: 1e5,
	}
}

// OverheadTime returns the per-cycle mechanical overhead time
// (spin-up + spin-down, the disk analogue of toh).
func (d Disk) OverheadTime() units.Duration {
	return d.SpinUpTime.Add(d.SpinDownTime)
}

// OverheadEnergy returns the per-cycle spin-up plus spin-down energy.
func (d Disk) OverheadEnergy() units.Energy {
	up := d.SpinUpPower.Times(d.SpinUpTime)
	down := d.SpinDownPower.Times(d.SpinDownTime)
	return up.Add(down)
}

// OverheadPower returns the average power over the overhead interval.
func (d Disk) OverheadPower() units.Power {
	toh := d.OverheadTime()
	if !toh.Positive() {
		return 0
	}
	return d.OverheadEnergy().DividedBy(toh)
}

// Validate checks the configuration for internal consistency. A zero seek
// time is valid; every power but standby must be positive.
func (d Disk) Validate() error {
	errs := make([]error, 0, 5)
	// Every float check is written so that NaN fails it.
	if !d.Capacity.Positive() {
		errs = append(errs, errors.New("capacity must be positive"))
	}
	if !d.MediaRate.Positive() {
		errs = append(errs, errors.New("media rate must be positive"))
	}
	if !(d.LoadUnloadCycles > 0) {
		errs = append(errs, errors.New("load/unload cycle rating must be positive"))
	}
	if !(d.ReadWritePower > 0 && d.SpinUpPower > 0 && d.SpinDownPower > 0 && d.SeekPower > 0 &&
		d.StandbyPower >= 0 && d.IdlePower > d.StandbyPower) {
		errs = append(errs, errors.New("active-state powers must be positive, standby power non-negative and below idle power"))
	}
	if !(d.SpinUpTime > 0 && d.SpinDownTime > 0 && d.SeekTime >= 0) {
		errs = append(errs, errors.New("spin-up and spin-down times must be positive and seek time non-negative"))
	}
	return errors.Join(errs...)
}

// String returns a one-line summary of the drive.
func (d Disk) String() string {
	return fmt.Sprintf("%s: %v at %v, spin-up %v", d.Name, d.Capacity, d.MediaRate, d.SpinUpTime)
}
