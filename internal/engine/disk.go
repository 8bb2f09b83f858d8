package engine

import (
	"memstream/internal/device"
	"memstream/internal/units"
)

// Disk adapts a device.Disk to the Backend interface so the 1.8-inch
// baseline of Section III-A.1 can be driven through the same refill cycle as
// the MEMS device. The positioning transition is the spin-up plus an average
// seek back to the stream position; its power is the energy-weighted average
// over that interval, so one accounting step charges exactly the spin-up and
// seek energies of the closed-form disk model.
type Disk struct {
	disk device.Disk
}

// NewDisk wraps the drive as a simulation backend.
func NewDisk(d device.Disk) Disk { return Disk{disk: d} }

// Name labels the backend.
func (d Disk) Name() string { return d.disk.Name }

// Validate checks the drive parameters.
func (d Disk) Validate() error { return d.disk.Validate() }

// MediaRate returns the sustained media transfer rate.
func (d Disk) MediaRate() units.BitRate { return d.disk.MediaRate }

// PositioningTime returns the spin-up plus average-seek time.
func (d Disk) PositioningTime() units.Duration {
	return d.disk.SpinUpTime.Add(d.disk.SeekTime)
}

// positioningEnergy is the spin-up plus seek energy of one wake-up.
func (d Disk) positioningEnergy() units.Energy {
	up := d.disk.SpinUpPower.Times(d.disk.SpinUpTime)
	seek := d.disk.SeekPower.Times(d.disk.SeekTime)
	return up.Add(seek)
}

// ShutdownTime returns the spin-down time.
func (d Disk) ShutdownTime() units.Duration { return d.disk.SpinDownTime }

// StatePower returns the power drawn in the given state. The seek state
// carries the blended positioning power so that time-proportional accounting
// over PositioningTime reproduces the spin-up plus seek energy exactly.
func (d Disk) StatePower(s device.PowerState) units.Power {
	switch s {
	case device.StateSeek:
		t := d.PositioningTime()
		if !t.Positive() {
			return 0
		}
		return d.positioningEnergy().DividedBy(t)
	case device.StateReadWrite, device.StateBestEffort:
		return d.disk.ReadWritePower
	case device.StateShutdown:
		return d.disk.SpinDownPower
	case device.StateStandby:
		return d.disk.StandbyPower
	case device.StateIdle:
		return d.disk.IdlePower
	default:
		return 0
	}
}

// WriteInflation is 1: the study does not model a formatting overhead for
// the disk baseline (it only serves as the break-even reference).
func (d Disk) WriteInflation(units.Size) float64 { return 1 }
