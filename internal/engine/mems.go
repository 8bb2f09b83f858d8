package engine

import (
	"memstream/internal/device"
	"memstream/internal/format"
	"memstream/internal/units"
)

// MEMS adapts a device.MEMS to the Backend interface: the positioning
// transition is the sled seek, the shutdown transition the standby descent,
// and write wear is inflated by the formatted-layout overhead of sectors
// sized to the streaming buffer.
type MEMS struct {
	dev    device.MEMS
	layout format.Layout
}

// NewMEMS wraps the device as a simulation backend.
func NewMEMS(dev device.MEMS) MEMS {
	return MEMS{dev: dev, layout: format.NewLayout(dev)}
}

// Device returns the wrapped MEMS device.
func (m MEMS) Device() device.MEMS { return m.dev }

// Name labels the backend.
func (m MEMS) Name() string { return m.dev.Name }

// Validate checks the device parameters.
func (m MEMS) Validate() error { return m.dev.Validate() }

// MediaRate returns the aggregate probe transfer rate.
func (m MEMS) MediaRate() units.BitRate { return m.dev.MediaRate() }

// PositioningTime returns the sled seek time.
func (m MEMS) PositioningTime() units.Duration { return m.dev.SeekTime }

// ShutdownTime returns the active-to-standby transition time.
func (m MEMS) ShutdownTime() units.Duration { return m.dev.ShutdownTime }

// StatePower returns the power drawn in the given state.
func (m MEMS) StatePower(s device.PowerState) units.Power { return m.dev.StatePower(s) }

// WriteInflation returns the physical-to-user write amplification of the
// formatted layout with sectors sized to the given buffer.
func (m MEMS) WriteInflation(buffer units.Size) float64 { return m.layout.WriteInflation(buffer) }
