// Package multistream extends the single-stream study of the paper to a
// device shared by several concurrent streams — the situation the paper's
// introduction motivates (a mobile system recording one stream while playing
// another, plus background traffic).
//
// The architecture generalises Fig. 1: the MEMS device wakes up once per
// super-cycle, seeks to each stream's region in turn, refills that stream's
// buffer at the media rate, serves the best-effort backlog, and shuts down
// again. Each stream i gets its own buffer sized to cover its drain over the
// super-cycle; the sector size of stream i's region equals its buffer, so the
// capacity and probes models of the single-stream study apply per stream.
// Springs wear once per wake-up, plus (optionally, conservatively) once per
// inter-stream repositioning.
//
// A plan prices its cycle at the device's state powers, charges the buffers
// through device.DRAM.CycleEnergy, takes the springs and probes lifetimes
// from internal/lifetime (Eqs. 5 and 6) and each region's write inflation
// from internal/format, so no model equation is written here a second time.
//
// The package answers the same design question as internal/core, but for the
// shared device: what super-cycle period — and therefore which set of
// per-stream buffers — meets a system-wide goal (E, C, L), and which
// requirement dictates it.
package multistream

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/format"
	"memstream/internal/lifetime"
	"memstream/internal/sim"
	"memstream/internal/solve"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// StreamSpec describes one of the concurrent streams.
type StreamSpec struct {
	// Name labels the stream in results.
	Name string
	// Rate is the stream's consumption/production rate.
	Rate units.BitRate
	// WriteFraction is the share of this stream's traffic written to the
	// device (1 for a recording, 0 for pure playback).
	WriteFraction float64
}

// Validate checks the stream description.
func (s StreamSpec) Validate() error {
	var errs []error
	if s.Name == "" {
		errs = append(errs, errors.New("multistream: stream needs a name"))
	}
	if !s.Rate.Positive() {
		errs = append(errs, errors.New("multistream: stream rate must be positive"))
	}
	if s.WriteFraction < 0 || s.WriteFraction > 1 {
		errs = append(errs, errors.New("multistream: write fraction must be in [0, 1]"))
	}
	return errors.Join(errs...)
}

// System is a MEMS device shared by several streams.
type System struct {
	// Device is the shared MEMS storage device.
	Device device.MEMS
	// Buffer is the DRAM model used for all stream buffers.
	Buffer device.DRAM
	// Workload supplies the playback calendar and best-effort share; the
	// per-stream write fractions come from the StreamSpecs.
	Workload lifetime.Workload
	// Streams are the concurrent streams.
	Streams []StreamSpec
	// CountInterStreamSeeks also charges the repositioning between stream
	// regions within one wake-up against the springs duty-cycle rating
	// (conservative; the default charges only the wake-up itself).
	CountInterStreamSeeks bool
}

// NewSystem builds and validates a shared-device system.
func NewSystem(dev device.MEMS, dram device.DRAM, wl lifetime.Workload, streams []StreamSpec) (*System, error) {
	s := &System{
		Device:   dev,
		Buffer:   dram,
		Workload: wl,
		Streams:  streams,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the system: valid parts and an admissible aggregate rate.
func (s *System) Validate() error {
	var errs []error
	if err := s.Device.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := s.Buffer.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := s.Workload.Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(s.Streams) == 0 {
		errs = append(errs, errors.New("multistream: at least one stream is required"))
	}
	for i, st := range s.Streams {
		if err := st.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("stream %d: %w", i, err))
		}
	}
	if len(errs) == 0 {
		if !s.Admissible() {
			errs = append(errs, fmt.Errorf("multistream: aggregate rate %v exceeds the admissible media share %v",
				s.AggregateRate(), s.admissibleRate()))
		}
	}
	return errors.Join(errs...)
}

// AggregateRate returns the sum of all stream rates.
func (s *System) AggregateRate() units.BitRate {
	var total units.BitRate
	for _, st := range s.Streams {
		total = total.Add(st.Rate)
	}
	return total
}

// admissibleRate is the media-rate share left after the best-effort reserve.
func (s *System) admissibleRate() units.BitRate {
	return s.Device.MediaRate().Scale(1 - s.Workload.BestEffortFraction)
}

// Admissible reports whether the stream set can be sustained at all.
func (s *System) Admissible() bool {
	return s.AggregateRate() < s.admissibleRate()
}

// seeksPerCycle is the number of spring duty cycles charged per wake-up.
func (s *System) seeksPerCycle() float64 {
	if s.CountInterStreamSeeks {
		return float64(len(s.Streams))
	}
	return 1
}

// Plan is the evaluation of the shared system at one super-cycle period.
type Plan struct {
	// Period is the super-cycle length T.
	Period units.Duration
	// Buffers holds one buffer per stream (same order as System.Streams).
	Buffers []units.Size
	// TotalBuffer is the sum of the per-stream buffers.
	TotalBuffer units.Size
	// ActiveTime is the media-transfer time per cycle (all refills).
	ActiveTime units.Duration
	// OverheadTime is the positioning plus shutdown time per cycle.
	OverheadTime units.Duration
	// BestEffortTime is the cycle share reserved for best-effort requests.
	BestEffortTime units.Duration
	// Standby is the remaining shut-down time per cycle.
	Standby units.Duration
	// EnergyPerBit is the per-streamed-bit energy over the cycle.
	EnergyPerBit units.EnergyPerBit
	// EnergySaving is the saving over the always-on reference.
	EnergySaving float64
	// Utilisation is the worst per-stream capacity utilisation.
	Utilisation float64
	// SpringsLifetime and ProbesLifetime follow Eqs. 5-6 generalised to the
	// shared cycle.
	SpringsLifetime units.Duration
	ProbesLifetime  units.Duration
	// Lifetime is the minimum of the two.
	Lifetime units.Duration
}

// minimumPeriod returns the smallest super-cycle for which the schedule
// closes: the active, positioning and best-effort time must fit in the cycle.
func (s *System) minimumPeriod() units.Duration {
	rm := s.Device.MediaRate().BitsPerSecond()
	agg := s.AggregateRate().BitsPerSecond()
	overhead := s.overheadPerCycle().Seconds()
	// Active share per unit period: sum_i (ri*T/(rm-ri))/T.
	activeShare := 0.0
	for _, st := range s.Streams {
		activeShare += st.Rate.BitsPerSecond() / (rm - st.Rate.BitsPerSecond())
	}
	free := 1 - activeShare - s.Workload.BestEffortFraction
	if free <= 0 || agg >= rm {
		return units.Duration(math.Inf(1))
	}
	return units.Second.Scale(overhead / free)
}

// overheadPerCycle returns the positioning plus shutdown time of one wake-up.
func (s *System) overheadPerCycle() units.Duration {
	perCycle := s.Device.OverheadTime() // first seek + shutdown
	if n := len(s.Streams); n > 1 {
		perCycle = perCycle.Add(s.Device.SeekTime.Scale(float64(n - 1)))
	}
	return perCycle
}

// At evaluates the shared system at super-cycle period t.
func (s *System) At(t units.Duration) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	if !t.Positive() {
		return Plan{}, errors.New("multistream: period must be positive")
	}
	if min := s.minimumPeriod(); t < min {
		return Plan{}, fmt.Errorf("multistream: period %v below the schedulable minimum %v", t, min)
	}
	dev := s.Device
	rm := dev.MediaRate()
	layout := format.NewLayout(dev)

	plan := Plan{Period: t}
	var active units.Duration
	worstU := 1.0
	for _, st := range s.Streams {
		buffer := st.Rate.Times(t)
		plan.Buffers = append(plan.Buffers, buffer)
		plan.TotalBuffer = plan.TotalBuffer.Add(buffer)
		active = active.Add(rm.Sub(st.Rate).TimeFor(buffer))
		if u := layout.Utilisation(buffer); u < worstU {
			worstU = u
		}
	}
	plan.ActiveTime = active
	plan.OverheadTime = s.overheadPerCycle()
	plan.BestEffortTime = t.Scale(s.Workload.BestEffortFraction)
	plan.Standby = t.Sub(active).Sub(plan.OverheadTime).Sub(plan.BestEffortTime)
	if plan.Standby < 0 {
		return Plan{}, fmt.Errorf("multistream: period %v leaves no standby time", t)
	}
	plan.Utilisation = worstU

	// Energy: every state's residency charged at the device's state powers,
	// as the simulator charges them step by step. The positioning share
	// covers the wake-up seek plus the (n-1) inter-stream repositionings of
	// overheadPerCycle. The device is read live, so callers who adjust the
	// exported fields after NewSystem keep times and powers consistent.
	energy := dev.SeekPower.Times(dev.SeekTime.Scale(float64(len(s.Streams)))).
		Add(dev.ReadWritePower.Times(active)).
		Add(dev.ReadWritePower.Times(plan.BestEffortTime)).
		Add(dev.ShutdownPower.Times(dev.ShutdownTime)).
		Add(dev.StandbyPower.Times(plan.Standby))
	total := energy.Add(s.Buffer.CycleEnergy(plan.TotalBuffer, t, 0))
	plan.EnergyPerBit = total.PerBit(plan.TotalBuffer)

	// Always-on reference: the device never shuts down, refills every stream
	// each cycle and idles in between (best-effort charged to the shutdown
	// architecture only, as in the single-stream model).
	alwaysOn := dev.IdlePower.Times(t.Sub(active)).Add(dev.ReadWritePower.Times(active))
	if alwaysOn.Joules() > 0 {
		plan.EnergySaving = 1 - total.Joules()/alwaysOn.Joules()
	}

	// Springs: duty cycles per year at this wake-up frequency (Eq. 5).
	secondsPerYear := s.Workload.StreamedSecondsPerYear().Seconds()
	plan.SpringsLifetime = lifetime.Springs(dev, secondsPerYear/t.Seconds()*s.seeksPerCycle())

	// Probes: physical bits written per year across all streams, each
	// inflated by its own region's formatting overhead (Eq. 6).
	writtenPerYear := 0.0
	for i, st := range s.Streams {
		if st.WriteFraction == 0 {
			continue
		}
		writtenPerYear += st.WriteFraction * st.Rate.BitsPerSecond() * secondsPerYear *
			layout.WriteInflation(plan.Buffers[i])
	}
	plan.ProbesLifetime = lifetime.Probes(dev, units.Bit.Scale(writtenPerYear))
	plan.Lifetime = plan.SpringsLifetime
	if plan.ProbesLifetime < plan.Lifetime {
		plan.Lifetime = plan.ProbesLifetime
	}
	return plan, nil
}

// SimConfigForPlan builds the event-driven shared-device simulation of a
// plan: one CBR stream per StreamSpec through its dimensioned buffer, the
// system's best-effort share at the media rate, and gated round-robin
// scheduling (the closed form's cycle model). The returned configuration is
// the parity bridge between At and the simulator — run it with sim.RunMulti
// and the observed per-cycle composition should match the plan's.
func (s *System) SimConfigForPlan(plan Plan, duration units.Duration, seed uint64) (sim.MultiConfig, error) {
	if len(plan.Buffers) != len(s.Streams) {
		return sim.MultiConfig{}, fmt.Errorf("multistream: plan has %d buffers for %d streams",
			len(plan.Buffers), len(s.Streams))
	}
	cfg := sim.MultiConfig{
		Device:   s.Device,
		DRAM:     s.Buffer,
		Policy:   engine.PolicyRoundRobin,
		Duration: duration,
		Seed:     seed,
	}
	for i, st := range s.Streams {
		spec := workload.CBRSpec(st.Rate)
		spec.WriteFraction = st.WriteFraction
		cfg.Streams = append(cfg.Streams, sim.MultiStream{
			Name:   st.Name,
			Spec:   spec,
			Buffer: plan.Buffers[i],
		})
	}
	if s.Workload.BestEffortFraction > 0 {
		cfg.BestEffort = workload.NewBestEffortProcess(s.Workload.BestEffortFraction, s.Device.MediaRate(), seed)
	}
	return cfg, nil
}

// SimulatePlan runs the plan through the multi-stream event engine for the
// given simulated time and returns what the simulator observed, so the
// closed-form dimensioning of At can be validated (or refuted) by simulation.
func (s *System) SimulatePlan(plan Plan, duration units.Duration, seed uint64) (*sim.MultiStats, error) {
	cfg, err := s.SimConfigForPlan(plan, duration, seed)
	if err != nil {
		return nil, err
	}
	return sim.RunMulti(cfg)
}

// Dimensioning is the answer to the shared-device design question.
type Dimensioning struct {
	// Goal is the system-wide design goal.
	Goal core.Goal
	// Period is the dimensioned super-cycle length.
	Period units.Duration
	// Plan is the full evaluation at that period.
	Plan Plan
	// PeriodFor records the minimum period each constraint demands
	// (infinity marks an infeasible constraint).
	PeriodFor [core.NumConstraints]units.Duration
	// Dominant is the constraint demanding the longest period.
	Dominant core.Constraint
	// Feasible reports whether every constraint can be met.
	Feasible bool
	// Reasons explains infeasible constraints.
	Reasons map[core.Constraint]string
}

// maxSearchPeriodSeconds bounds the periods considered when inverting the
// saving and probes curves. Two minutes of super-cycle is far beyond any
// practical design (it already implies hundreds of megabits of buffer), and
// staying below it keeps the saving curve in its monotone region — for much
// longer periods the DRAM retention of the enormous buffers erodes the
// saving again.
const maxSearchPeriodSeconds = 120.0

// Dimension finds the smallest super-cycle period (and therefore the smallest
// per-stream buffers) meeting the goal, and reports which requirement
// dictates it.
func (s *System) Dimension(goal core.Goal) (Dimensioning, error) {
	if err := goal.Validate(); err != nil {
		return Dimensioning{}, err
	}
	if err := s.Validate(); err != nil {
		return Dimensioning{}, err
	}
	d := Dimensioning{Goal: goal, Feasible: true, Reasons: make(map[core.Constraint]string)}
	minPeriod := s.minimumPeriod().Seconds() * (1 + 1e-9)
	secondsPerYear := s.Workload.StreamedSecondsPerYear().Seconds()

	// Capacity: every stream's region must reach the utilisation target, so
	// the slowest stream binds.
	capPeriod := 0.0
	if goal.CapacityUtilisation > 0 {
		su, err := format.NewLayout(s.Device).MinUserBitsForUtilisation(goal.CapacityUtilisation)
		if err != nil {
			d.PeriodFor[core.ConstraintCapacity] = units.Duration(math.Inf(1))
			d.Reasons[core.ConstraintCapacity] = err.Error()
			d.Feasible = false
		} else {
			for _, st := range s.Streams {
				if p := su.Bits() / st.Rate.BitsPerSecond(); p > capPeriod {
					capPeriod = p
				}
			}
			d.PeriodFor[core.ConstraintCapacity] = units.Second.Scale(capPeriod)
		}
	}

	// Springs: linear in the period.
	springsPeriod := goal.Lifetime.Years() * secondsPerYear * s.seeksPerCycle() / s.Device.SpringDutyCycles
	d.PeriodFor[core.ConstraintSprings] = units.Second.Scale(springsPeriod)

	// Probes: monotone and saturating in the period.
	probesPred := func(p float64) bool {
		plan, err := s.At(units.Second.Scale(p))
		return err == nil && plan.ProbesLifetime.Years() >= goal.Lifetime.Years()
	}
	if goal.Lifetime > 0 {
		if p, err := solve.MinimumWhere(probesPred, minPeriod, maxSearchPeriodSeconds, 1e-6); err == nil {
			d.PeriodFor[core.ConstraintProbes] = units.Second.Scale(p)
		} else {
			d.PeriodFor[core.ConstraintProbes] = units.Duration(math.Inf(1))
			d.Reasons[core.ConstraintProbes] = fmt.Sprintf(
				"probes cannot reach %.1f years for this stream mix at any period", goal.Lifetime.Years())
			d.Feasible = false
		}
	}

	// Energy: monotone in the period (larger cycles amortise the overhead).
	energyPred := func(p float64) bool {
		plan, err := s.At(units.Second.Scale(p))
		return err == nil && plan.EnergySaving >= goal.EnergySaving
	}
	if goal.EnergySaving > 0 {
		if p, err := solve.MinimumWhere(energyPred, minPeriod, maxSearchPeriodSeconds, 1e-6); err == nil {
			d.PeriodFor[core.ConstraintEnergy] = units.Second.Scale(p)
		} else {
			d.PeriodFor[core.ConstraintEnergy] = units.Duration(math.Inf(1))
			d.Reasons[core.ConstraintEnergy] = fmt.Sprintf(
				"a %.0f%% saving is unreachable for this stream mix", 100*goal.EnergySaving)
			d.Feasible = false
		}
	}

	// The required period is the largest finite demand, at least the
	// schedulable minimum.
	required := minPeriod
	dominant := core.ConstraintEnergy
	var maxFinite float64 = -1
	for c := 0; c < core.NumConstraints; c++ {
		p := d.PeriodFor[c].Seconds()
		if math.IsInf(p, 1) {
			continue
		}
		if p > maxFinite {
			maxFinite = p
			dominant = core.Constraint(c)
		}
	}
	if maxFinite > required {
		required = maxFinite
	}
	d.Period = units.Second.Scale(required)
	d.Dominant = dominant
	if !d.Feasible {
		return d, nil
	}
	plan, err := s.At(d.Period)
	if err != nil {
		return Dimensioning{}, err
	}
	d.Plan = plan
	return d, nil
}
