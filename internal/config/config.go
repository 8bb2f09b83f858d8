// Package config bundles the parameter sets of the study — the Table I device
// and workload, the DRAM buffer and the disk baseline — into a single
// serialisable Study configuration, so that experiments can be described
// and saved as JSON.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"memstream/internal/device"
	"memstream/internal/lifetime"
	"memstream/internal/units"
)

// Study is a complete, serialisable description of one study configuration.
type Study struct {
	// Name labels the configuration.
	Name string `json:"name"`
	// Device holds the MEMS device parameters in friendly units.
	Device DeviceConfig `json:"device"`
	// Workload holds the streaming usage pattern.
	Workload WorkloadConfig `json:"workload"`
	// RateRange holds the studied streaming-rate range in kbps.
	RateRange RateRangeConfig `json:"rateRange"`
}

// DeviceConfig mirrors Table I in the units the paper uses.
type DeviceConfig struct {
	ProbeArrayRows       int     `json:"probeArrayRows"`
	ProbeArrayCols       int     `json:"probeArrayCols"`
	ActiveProbes         int     `json:"activeProbes"`
	ProbeFieldMicrons    float64 `json:"probeFieldMicrons"`
	CapacityGB           float64 `json:"capacityGB"`
	PerProbeRateKbps     float64 `json:"perProbeRateKbps"`
	SeekTimeMs           float64 `json:"seekTimeMs"`
	ShutdownTimeMs       float64 `json:"shutdownTimeMs"`
	IOOverheadMs         float64 `json:"ioOverheadMs"`
	ReadWritePowerMW     float64 `json:"readWritePowerMW"`
	SeekPowerMW          float64 `json:"seekPowerMW"`
	StandbyPowerMW       float64 `json:"standbyPowerMW"`
	IdlePowerMW          float64 `json:"idlePowerMW"`
	ShutdownPowerMW      float64 `json:"shutdownPowerMW"`
	ProbeWriteCycles     float64 `json:"probeWriteCycles"`
	SpringDutyCycles     float64 `json:"springDutyCycles"`
	SyncBitsPerSubsector int     `json:"syncBitsPerSubsector"`
	ECCFraction          float64 `json:"eccFraction"`
}

// WorkloadConfig mirrors the workload rows of Table I.
type WorkloadConfig struct {
	HoursPerDay        float64 `json:"hoursPerDay"`
	WritesPercent      float64 `json:"writesPercent"`
	BestEffortPercent  float64 `json:"bestEffortPercent"`
	StreamRateKbps     float64 `json:"streamRateKbps"`
	LifetimeTargetYrs  float64 `json:"lifetimeTargetYears"`
	EnergyTargetPct    float64 `json:"energyTargetPercent"`
	CapacityTargetPct  float64 `json:"capacityTargetPercent"`
	SpringRatingCycles float64 `json:"springRatingCycles"`
	ProbeRatingCycles  float64 `json:"probeRatingCycles"`
}

// RateRangeConfig is the studied streaming-rate range.
type RateRangeConfig struct {
	MinKbps float64 `json:"minKbps"`
	MaxKbps float64 `json:"maxKbps"`
	Points  int     `json:"points"`
}

// TableI returns the study configuration of the paper's Table I with the
// default design goal of Fig. 3a.
func TableI() Study {
	return Study{
		Name: "Table I — IBM-class MEMS prototype, streaming workload",
		Device: DeviceConfig{
			ProbeArrayRows:       64,
			ProbeArrayCols:       64,
			ActiveProbes:         1024,
			ProbeFieldMicrons:    100,
			CapacityGB:           120,
			PerProbeRateKbps:     100,
			SeekTimeMs:           2,
			ShutdownTimeMs:       1,
			IOOverheadMs:         2,
			ReadWritePowerMW:     316,
			SeekPowerMW:          672,
			StandbyPowerMW:       5,
			IdlePowerMW:          120,
			ShutdownPowerMW:      672,
			ProbeWriteCycles:     100,
			SpringDutyCycles:     1e8,
			SyncBitsPerSubsector: 3,
			ECCFraction:          0.125,
		},
		Workload: WorkloadConfig{
			HoursPerDay:        8,
			WritesPercent:      40,
			BestEffortPercent:  5,
			StreamRateKbps:     1024,
			LifetimeTargetYrs:  7,
			EnergyTargetPct:    80,
			CapacityTargetPct:  88,
			SpringRatingCycles: 1e8,
			ProbeRatingCycles:  100,
		},
		RateRange: RateRangeConfig{MinKbps: 32, MaxKbps: 4096, Points: 25},
	}
}

// MEMS converts the device section into a device.MEMS model.
func (s Study) MEMS() device.MEMS {
	d := s.Device
	return device.MEMS{
		Name:                 s.Name,
		ProbeArrayRows:       d.ProbeArrayRows,
		ProbeArrayCols:       d.ProbeArrayCols,
		ActiveProbes:         d.ActiveProbes,
		ProbeFieldWidth:      d.ProbeFieldMicrons / 1e6,
		ProbeFieldHeight:     d.ProbeFieldMicrons / 1e6,
		Capacity:             units.GB.Scale(d.CapacityGB),
		PerProbeRate:         units.Kbps.Scale(d.PerProbeRateKbps),
		SeekTime:             units.Millisecond.Scale(d.SeekTimeMs),
		ShutdownTime:         units.Millisecond.Scale(d.ShutdownTimeMs),
		IOOverheadTime:       units.Millisecond.Scale(d.IOOverheadMs),
		ReadWritePower:       units.Milliwatt.Scale(d.ReadWritePowerMW),
		SeekPower:            units.Milliwatt.Scale(d.SeekPowerMW),
		StandbyPower:         units.Milliwatt.Scale(d.StandbyPowerMW),
		IdlePower:            units.Milliwatt.Scale(d.IdlePowerMW),
		ShutdownPower:        units.Milliwatt.Scale(d.ShutdownPowerMW),
		ProbeWriteCycles:     d.ProbeWriteCycles,
		SpringDutyCycles:     d.SpringDutyCycles,
		SyncBitsPerSubsector: d.SyncBitsPerSubsector,
		ECCFraction:          d.ECCFraction,
	}
}

// Lifetime converts the workload section into a lifetime.Workload.
func (s Study) Lifetime() lifetime.Workload {
	w := s.Workload
	return lifetime.Workload{
		HoursPerDay:        w.HoursPerDay,
		WriteFraction:      w.WritesPercent / 100,
		BestEffortFraction: w.BestEffortPercent / 100,
	}
}

// StreamRate returns the workload's nominal streaming rate.
func (s Study) StreamRate() units.BitRate {
	return units.Kbps.Scale(s.Workload.StreamRateKbps)
}

// Rates returns the studied rate range as (min, max, points).
func (s Study) Rates() (units.BitRate, units.BitRate, int) {
	return units.Kbps.Scale(s.RateRange.MinKbps),
		units.Kbps.Scale(s.RateRange.MaxKbps),
		s.RateRange.Points
}

// Validate checks that the configuration converts into valid models.
func (s Study) Validate() error {
	var errs []error
	if s.Name == "" {
		errs = append(errs, errors.New("config: study needs a name"))
	}
	if err := s.MEMS().Validate(); err != nil {
		errs = append(errs, fmt.Errorf("config: device: %w", err))
	}
	if err := s.Lifetime().Validate(); err != nil {
		errs = append(errs, fmt.Errorf("config: workload: %w", err))
	}
	if s.RateRange.MinKbps <= 0 || s.RateRange.MaxKbps <= s.RateRange.MinKbps {
		errs = append(errs, errors.New("config: invalid rate range"))
	}
	if s.RateRange.Points < 2 {
		errs = append(errs, errors.New("config: rate range needs at least two points"))
	}
	if !s.StreamRate().Positive() {
		errs = append(errs, errors.New("config: stream rate must be positive"))
	}
	return errors.Join(errs...)
}

// Write serialises the study as indented JSON.
func (s Study) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Save writes a study to a JSON file, reporting a failed write or close.
func (s Study) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return errors.Join(s.Write(f), f.Close())
}
