// Package core ties the substrate models together into the paper's actual
// contribution: a single Model that, for one MEMS device, DRAM buffer,
// formatting layout, workload and streaming bit rate, evaluates
//
//   - the per-bit energy consumption and energy saving (Eq. 1),
//   - the capacity utilisation and effective user capacity (Eqs. 2-4),
//   - the springs and probes lifetime (Eqs. 5-6),
//
// as functions of the streaming-buffer size, and inverts them: given a design
// goal (E, C, L) it returns the buffer size required to meet it, which
// requirement dominates, and whether the goal is feasible at all.
package core

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/format"
	"memstream/internal/lifetime"
	"memstream/internal/units"
)

// Model is the complete analytical model of one streaming MEMS configuration
// at one streaming bit rate.
type Model struct {
	// Device is the MEMS storage device.
	Device device.MEMS
	// Buffer is the DRAM buffer model.
	Buffer device.DRAM
	// Layout is the sector-formatting layout.
	Layout format.Layout
	// Workload is the streaming usage pattern.
	Workload lifetime.Workload
	// Rate is rs, the streaming bit rate.
	Rate units.BitRate

	energyModel   energy.Model
	lifetimeModel lifetime.Model
}

// Options adjust how a Model is built.
type Options struct {
	// Workload overrides the Table I workload when non-nil.
	Workload *lifetime.Workload
	// DRAM overrides the default DRAM model when non-nil.
	DRAM *device.DRAM
	// IncludeDRAMEnergy charges DRAM energy to the buffered architecture
	// (the paper's setting). Defaults to true.
	IncludeDRAMEnergy *bool
}

// New builds a Model for the given device and streaming rate using the
// Table I workload and the default DRAM model. Use NewWithOptions to deviate.
func New(dev device.MEMS, rate units.BitRate) (*Model, error) {
	return NewWithOptions(dev, rate, Options{})
}

// NewWithOptions builds a Model with explicit overrides.
func NewWithOptions(dev device.MEMS, rate units.BitRate, opts Options) (*Model, error) {
	wl := lifetime.DefaultWorkload()
	if opts.Workload != nil {
		wl = *opts.Workload
	}
	dram := device.DefaultDRAM()
	if opts.DRAM != nil {
		dram = *opts.DRAM
	}
	layout := format.NewLayout(dev)

	em, err := energy.New(dev, dram, rate)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	em.BestEffortFraction = wl.BestEffortFraction
	if opts.IncludeDRAMEnergy != nil {
		em.IncludeDRAM = *opts.IncludeDRAMEnergy
	}
	lm, err := lifetime.New(dev, layout, wl, rate)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Model{
		Device:        dev,
		Buffer:        dram,
		Layout:        layout,
		Workload:      wl,
		Rate:          rate,
		energyModel:   em,
		lifetimeModel: lm,
	}
	return m, nil
}

// Energy exposes the underlying energy model.
func (m *Model) Energy() energy.Model { return m.energyModel }

// Lifetime exposes the underlying lifetime model.
func (m *Model) Lifetime() lifetime.Model { return m.lifetimeModel }

// Point is the full evaluation of the model at one buffer size.
type Point struct {
	// Buffer is the evaluated buffer size B (equal to the sector payload Su).
	Buffer units.Size
	// EnergyPerBit is the total per-bit energy of the buffered architecture.
	EnergyPerBit units.EnergyPerBit
	// EnergyBreakdown splits the per-bit energy by cause.
	EnergyBreakdown energy.Breakdown
	// EnergySaving is the relative saving over the always-on reference.
	EnergySaving float64
	// Utilisation is the capacity utilisation u(B).
	Utilisation float64
	// UserCapacity is the effective user capacity at this formatting.
	UserCapacity units.Size
	// SpringsLifetime is Eq. 5 evaluated at B.
	SpringsLifetime units.Duration
	// ProbesLifetime is Eq. 6 evaluated at B.
	ProbesLifetime units.Duration
	// Lifetime is min(springs, probes).
	Lifetime units.Duration
	// LimitedBy names the component bounding the lifetime.
	LimitedBy lifetime.LimitingComponent
}

// At evaluates every model output at buffer size b.
func (m *Model) At(b units.Size) (Point, error) {
	savingCurve, err := m.energyModel.SavingCurve()
	if err != nil {
		return Point{}, err
	}
	breakdown, saving, err := savingCurve(b)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Buffer:          b,
		EnergyPerBit:    breakdown.Total(),
		EnergyBreakdown: breakdown,
		EnergySaving:    saving,
		Utilisation:     m.Layout.Utilisation(b),
		UserCapacity:    m.Layout.UserCapacity(b),
		SpringsLifetime: m.lifetimeModel.Springs(b),
		ProbesLifetime:  m.lifetimeModel.Probes(b),
		Lifetime:        m.lifetimeModel.Combined(b),
		LimitedBy:       m.lifetimeModel.Limiter(b),
	}, nil
}

// BreakEvenBuffer returns the break-even streaming buffer of the device at
// the model's rate.
func (m *Model) BreakEvenBuffer() (units.Size, error) {
	return m.energyModel.BreakEvenBuffer()
}

// MinimumBuffer returns the smallest buffer for which a shutdown cycle closes.
func (m *Model) MinimumBuffer() units.Size {
	return m.energyModel.MinimumBuffer()
}

// Constraint identifies one of the four design requirements that can dictate
// the buffer size.
type Constraint int

// The design requirements, in the paper's notation.
const (
	// ConstraintEnergy is the E requirement (relative energy saving).
	ConstraintEnergy Constraint = iota
	// ConstraintCapacity is the C requirement (capacity utilisation).
	ConstraintCapacity
	// ConstraintSprings is the springs part of the L requirement.
	ConstraintSprings
	// ConstraintProbes is the probes part of the L requirement.
	ConstraintProbes
	numConstraints
)

// NumConstraints is the number of distinct constraints.
const NumConstraints = int(numConstraints)

// String returns the paper's label for the constraint.
func (c Constraint) String() string {
	switch c {
	case ConstraintEnergy:
		return "E"
	case ConstraintCapacity:
		return "C"
	case ConstraintSprings:
		return "Lsp"
	case ConstraintProbes:
		return "Lpb"
	default:
		return fmt.Sprintf("Constraint(%d)", int(c))
	}
}

// Description returns a human-readable name for the constraint.
func (c Constraint) Description() string {
	switch c {
	case ConstraintEnergy:
		return "energy saving"
	case ConstraintCapacity:
		return "capacity utilisation"
	case ConstraintSprings:
		return "springs lifetime"
	case ConstraintProbes:
		return "probes lifetime"
	default:
		return c.String()
	}
}

// Goal is a design goal (E, C, L) in the paper's notation.
type Goal struct {
	// EnergySaving is E, the required relative energy saving over an
	// always-on device, in [0, 1).
	EnergySaving float64
	// CapacityUtilisation is C, the required capacity utilisation, in [0, 1).
	CapacityUtilisation float64
	// Lifetime is L, the required device lifetime.
	Lifetime units.Duration
}

// Validate checks that the goal is well formed (it may still be infeasible).
func (g Goal) Validate() error {
	var errs []error
	// Each range check is written so that NaN fails it.
	if !(g.EnergySaving >= 0 && g.EnergySaving < 1) {
		errs = append(errs, errors.New("core: energy-saving goal must be in [0, 1)"))
	}
	if !(g.CapacityUtilisation >= 0 && g.CapacityUtilisation < 1) {
		errs = append(errs, errors.New("core: capacity goal must be in [0, 1)"))
	}
	if !(g.Lifetime >= 0) {
		errs = append(errs, errors.New("core: lifetime goal must be non-negative"))
	}
	return errors.Join(errs...)
}

// String formats the goal the way the paper labels its figures.
func (g Goal) String() string {
	return fmt.Sprintf("(E = %.0f%%, C = %.0f%%, L = %.0f y)",
		100*g.EnergySaving, 100*g.CapacityUtilisation, g.Lifetime.Years())
}

// PaperGoalA is the Fig. 3a goal: the attainable maxima (80 %, 88 %, 7 years).
func PaperGoalA() Goal {
	return Goal{EnergySaving: 0.80, CapacityUtilisation: 0.88, Lifetime: 7 * units.Year}
}

// PaperGoalB is the Fig. 3b/3c goal with the relaxed energy target
// (70 %, 88 %, 7 years).
func PaperGoalB() Goal {
	return Goal{EnergySaving: 0.70, CapacityUtilisation: 0.88, Lifetime: 7 * units.Year}
}

// PaperGoalC85 is the Section IV-C textual variant with the relaxed capacity
// target (80 %, 85 %, 7 years): the capacity-dominated range shrinks,
// lifetime dominates temporarily, then energy takes over as in Fig. 3a.
func PaperGoalC85() Goal {
	return Goal{EnergySaving: 0.80, CapacityUtilisation: 0.85, Lifetime: 7 * units.Year}
}

// Requirement is the buffer requirement imposed by a single constraint.
type Requirement struct {
	// Constraint identifies the requirement.
	Constraint Constraint
	// Buffer is the minimum buffer size that satisfies it. Meaningless when
	// the constraint is infeasible.
	Buffer units.Size
	// Feasible reports whether any buffer size satisfies the constraint at
	// this streaming rate.
	Feasible bool
	// Reason explains infeasibility (empty when feasible).
	Reason string
}

// Dimensioning is the answer to the design question of Section IV-C: the
// buffer required to achieve a goal, or a statement that the goal is
// infeasible at this streaming rate.
type Dimensioning struct {
	// Goal is the design goal the dimensioning answers.
	Goal Goal
	// Rate is the streaming bit rate.
	Rate units.BitRate
	// Requirements holds the per-constraint buffer requirements.
	Requirements [NumConstraints]Requirement
	// Buffer is the overall required buffer: the maximum over all feasible
	// constraints. Only meaningful when Feasible.
	Buffer units.Size
	// Dominant is the constraint that dictates Buffer.
	Dominant Constraint
	// Feasible reports whether every constraint can be met.
	Feasible bool
	// EnergyBuffer is the buffer required by the energy goal alone (the
	// "energy-efficiency buffer" curve of Fig. 3); zero when the energy goal
	// needs no buffer beyond the minimum, +Inf recorded as infeasible.
	EnergyBuffer units.Size
}

// Infeasible returns the constraints that cannot be met at any buffer size.
func (d Dimensioning) Infeasible() []Constraint {
	var out []Constraint
	for _, r := range d.Requirements {
		if !r.Feasible {
			out = append(out, r.Constraint)
		}
	}
	return out
}

// BufferForEnergySaving returns the smallest buffer achieving the target
// energy saving (energy.Model.BufferForSaving), or an infeasible requirement
// that says why no buffer does.
func (m *Model) BufferForEnergySaving(target float64) (Requirement, error) {
	req := Requirement{Constraint: ConstraintEnergy}
	if !(target >= 0 && target < 1) {
		return req, fmt.Errorf("core: energy-saving target %.3f out of range [0, 1)", target)
	}
	b, reason, err := m.energyModel.BufferForSaving(target)
	if err != nil {
		return req, err
	}
	req.Buffer, req.Feasible, req.Reason = b, reason == "", reason
	return req, nil
}

// BufferForUtilisation returns the smallest buffer (sector payload) achieving
// the target capacity utilisation.
func (m *Model) BufferForUtilisation(target float64) (Requirement, error) {
	req := Requirement{Constraint: ConstraintCapacity}
	if !(target >= 0 && target < 1) {
		return req, fmt.Errorf("core: capacity target %.3f out of range [0, 1)", target)
	}
	su, err := m.Layout.MinUserBitsForUtilisation(target)
	if err != nil {
		req.Feasible = false
		req.Reason = fmt.Sprintf("capacity utilisation ceiling is %.1f%%", 100*m.Layout.MaxUtilisation())
		return req, nil
	}
	req.Buffer = su
	req.Feasible = true
	return req, nil
}

// BufferForSpringsLifetime returns the smallest buffer whose springs lifetime
// reaches the target. A NaN or negative target is an error; zero needs no
// buffer.
func (m *Model) BufferForSpringsLifetime(target units.Duration) (Requirement, error) {
	req := Requirement{Constraint: ConstraintSprings}
	if !(target >= 0) {
		return req, fmt.Errorf("core: springs-lifetime target %v must be non-negative", target)
	}
	b, err := m.lifetimeModel.BufferForSprings(target)
	if err != nil {
		return req, err
	}
	req.Buffer = b
	req.Feasible = true
	return req, nil
}

// BufferForProbesLifetime returns the smallest buffer whose probes lifetime
// reaches the target, or an infeasible requirement when even perfect
// formatting cannot reach it. A NaN or negative target is an error; zero
// needs no buffer.
func (m *Model) BufferForProbesLifetime(target units.Duration) (Requirement, error) {
	req := Requirement{Constraint: ConstraintProbes}
	if !(target >= 0) {
		return req, fmt.Errorf("core: probes-lifetime target %v must be non-negative", target)
	}
	b, err := m.lifetimeModel.BufferForProbes(target)
	if err != nil {
		if ceiling := m.lifetimeModel.MaxProbesLifetime(); target > ceiling {
			req.Feasible = false
			req.Reason = fmt.Sprintf("probes lifetime ceiling at %v is %.1f years, below the %.1f-year target",
				m.Rate, ceiling.Years(), target.Years())
			return req, nil
		}
		return req, err
	}
	req.Buffer = b
	req.Feasible = true
	return req, nil
}

// Dimension answers the design question for the given goal at the model's
// streaming rate: the buffer required to achieve it, the dominant constraint,
// and feasibility.
func (m *Model) Dimension(goal Goal) (Dimensioning, error) {
	if err := goal.Validate(); err != nil {
		return Dimensioning{}, err
	}
	d := Dimensioning{Goal: goal, Rate: m.Rate, Feasible: true}

	reqE, err := m.BufferForEnergySaving(goal.EnergySaving)
	if err != nil {
		return Dimensioning{}, err
	}
	reqC, err := m.BufferForUtilisation(goal.CapacityUtilisation)
	if err != nil {
		return Dimensioning{}, err
	}
	reqS, err := m.BufferForSpringsLifetime(goal.Lifetime)
	if err != nil {
		return Dimensioning{}, err
	}
	reqP, err := m.BufferForProbesLifetime(goal.Lifetime)
	if err != nil {
		return Dimensioning{}, err
	}
	d.Requirements[ConstraintEnergy] = reqE
	d.Requirements[ConstraintCapacity] = reqC
	d.Requirements[ConstraintSprings] = reqS
	d.Requirements[ConstraintProbes] = reqP
	if reqE.Feasible {
		d.EnergyBuffer = reqE.Buffer
	}

	// The overall buffer is the largest of the per-constraint requirements
	// (and at least the size needed to close a refill cycle at all). The
	// dominant constraint is the feasible requirement with the largest
	// buffer; ties resolve in constraint order E, C, Lsp, Lpb.
	best := m.MinimumBuffer()
	dominant := ConstraintEnergy
	var maxBuf units.Size = -1
	for _, r := range d.Requirements {
		if !r.Feasible {
			d.Feasible = false
			continue
		}
		if r.Buffer > maxBuf {
			maxBuf = r.Buffer
			dominant = r.Constraint
		}
	}
	if maxBuf > best {
		best = maxBuf
	}
	if math.IsInf(best.Bits(), 1) {
		d.Feasible = false
	}
	d.Buffer = best
	d.Dominant = dominant
	return d, nil
}
