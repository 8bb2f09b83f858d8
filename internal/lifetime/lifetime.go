// Package lifetime implements the lifetime model of the paper
// (Section III-C): the springs lifetime, limited by the number of
// seek/shutdown duty cycles the suspension sustains (Eq. 5), and the probes
// lifetime, limited by the number of times the tips can overwrite the device
// (Eq. 6). The device lifetime is whichever fails first.
//
// Each equation is written once, in its forward form: Springs of the duty
// cycles per year and Probes of the physical bits written per year. Model
// evaluates them for one stream and buffer size; the shared-device plan
// (internal/multistream) and the simulator's wear projections
// (internal/engine) call them with their own rates.
package lifetime

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/device"
	"memstream/internal/format"
	"memstream/internal/units"
)

// Workload captures the streaming usage pattern the lifetime is evaluated
// against.
type Workload struct {
	// HoursPerDay is the daily playback/record time (Table I: 8 hours).
	HoursPerDay float64
	// WriteFraction is w, the fraction of streamed traffic that writes to the
	// device (Table I: 40 %).
	WriteFraction float64
	// BestEffortFraction is the share of each refill cycle spent on
	// non-streaming requests (Table I: 5 %). It does not enter the lifetime
	// equations directly but is carried here so a single workload value
	// parameterises the whole study.
	BestEffortFraction float64
}

// DefaultWorkload returns the Table I workload: eight hours of streaming per
// day all year round, 40 % writes, 5 % best-effort share.
func DefaultWorkload() Workload {
	return Workload{HoursPerDay: 8, WriteFraction: 0.4, BestEffortFraction: 0.05}
}

// Validate checks the workload parameters.
func (w Workload) Validate() error {
	var errs []error
	if w.HoursPerDay <= 0 || w.HoursPerDay > 24 {
		errs = append(errs, errors.New("lifetime: hours per day must be in (0, 24]"))
	}
	if w.WriteFraction < 0 || w.WriteFraction > 1 {
		errs = append(errs, errors.New("lifetime: write fraction must be in [0, 1]"))
	}
	if w.BestEffortFraction < 0 || w.BestEffortFraction >= 1 {
		errs = append(errs, errors.New("lifetime: best-effort fraction must be in [0, 1)"))
	}
	return errors.Join(errs...)
}

// StreamedSecondsPerYear returns T, the total seconds of streaming per year.
func (w Workload) StreamedSecondsPerYear() units.Duration {
	return units.Hour.Scale(w.HoursPerDay * 365)
}

// Model evaluates device lifetime for one device, formatting layout, workload
// and streaming rate.
type Model struct {
	// Device is the MEMS storage device (supplies the duty-cycle ratings and
	// raw capacity).
	Device device.MEMS
	// Layout is the formatting layout (supplies the effective sector size).
	Layout format.Layout
	// Workload is the streaming usage pattern.
	Workload Workload
	// StreamRate is rs.
	StreamRate units.BitRate
}

// New builds a lifetime model, validating its parts.
func New(dev device.MEMS, layout format.Layout, wl Workload, rate units.BitRate) (Model, error) {
	m := Model{Device: dev, Layout: layout, Workload: wl, StreamRate: rate}
	if err := m.Validate(); err != nil {
		return Model{}, err
	}
	return m, nil
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	var errs []error
	if err := m.Device.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := m.Layout.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := m.Workload.Validate(); err != nil {
		errs = append(errs, err)
	}
	if !m.StreamRate.Positive() {
		errs = append(errs, errors.New("lifetime: stream rate must be positive"))
	}
	return errors.Join(errs...)
}

// RefillsPerYear returns T*rs/B, the number of refill (seek + shutdown)
// cycles per year for buffer size B.
func (m Model) RefillsPerYear(b units.Size) float64 {
	if !b.Positive() {
		return math.Inf(1)
	}
	streamedBits := m.StreamRate.Times(m.Workload.StreamedSecondsPerYear())
	return streamedBits.DivideBy(b)
}

// Springs is Eq. 5 in its forward form: the springs rating Dsp over the
// seek/shutdown duty cycles the suspension goes through per year. A
// non-positive rate never wears the springs, so the lifetime is unbounded
// (+Inf).
func Springs(dev device.MEMS, cyclesPerYear float64) units.Duration {
	if !(cyclesPerYear > 0) {
		return units.Duration(math.Inf(1))
	}
	return units.Year.Scale(dev.SpringDutyCycles / cyclesPerYear)
}

// Probes is Eq. 6 in its forward form: the tips' write endurance C * Dpb,
// in physical bits, over the physical bits written per year (the user writes
// inflated by the sector format, whose ECC and sync bits are written too).
// Perfect write balancing across probes is assumed, as in the paper. With
// nothing written the probes never wear and the lifetime is unbounded (+Inf).
func Probes(dev device.MEMS, writtenPerYear units.Size) units.Duration {
	if !writtenPerYear.Positive() {
		return units.Duration(math.Inf(1))
	}
	return units.Year.Scale(endurance(dev).DivideBy(writtenPerYear))
}

// endurance is C * Dpb, the physical bits the tips can write in a lifetime.
func endurance(dev device.MEMS) units.Size {
	return dev.Capacity.Scale(dev.ProbeWriteCycles)
}

// userWritesPerYear is w * T * rs, the user bits the stream writes per year.
func (m Model) userWritesPerYear() units.Size {
	return m.StreamRate.Times(m.Workload.StreamedSecondsPerYear()).Scale(m.Workload.WriteFraction)
}

// Springs returns the springs lifetime in years for buffer size B (Eq. 5):
// Lsp = Dsp * B / (T * rs).
func (m Model) Springs(b units.Size) units.Duration {
	return Springs(m.Device, m.RefillsPerYear(b))
}

// Probes returns the probes lifetime in years for buffer size B (Eq. 6):
// Lpb = C * Dpb * B / (w * S * T * rs), with S the effective sector size of a
// sector holding B user bits (Su = B). With no write traffic the probes never
// wear and the lifetime is unbounded (+Inf).
func (m Model) Probes(b units.Size) units.Duration {
	if !b.Positive() {
		return 0
	}
	return Probes(m.Device, m.userWritesPerYear().Scale(m.Layout.WriteInflation(b)))
}

// Combined returns the device lifetime min(Lsp, Lpb) for buffer size B.
func (m Model) Combined(b units.Size) units.Duration {
	sp := m.Springs(b)
	pb := m.Probes(b)
	if sp < pb {
		return sp
	}
	return pb
}

// LimitingComponent identifies which wear mechanism bounds the lifetime.
type LimitingComponent int

// The wear mechanisms.
const (
	// LimitSprings means the suspension duty-cycle rating fails first.
	LimitSprings LimitingComponent = iota
	// LimitProbes means tip wear fails first.
	LimitProbes
)

// String names the limiting component.
func (l LimitingComponent) String() string {
	switch l {
	case LimitSprings:
		return "springs"
	case LimitProbes:
		return "probes"
	default:
		return fmt.Sprintf("LimitingComponent(%d)", int(l))
	}
}

// Limiter reports which component limits the lifetime at buffer size B.
func (m Model) Limiter(b units.Size) LimitingComponent {
	if m.Springs(b) <= m.Probes(b) {
		return LimitSprings
	}
	return LimitProbes
}

// BufferForSprings returns the smallest buffer size whose springs lifetime
// reaches the target (the inverse of Eq. 5, which is linear in B):
// B = target * T * rs / Dsp.
func (m Model) BufferForSprings(target units.Duration) (units.Size, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if target <= 0 {
		return 0, nil
	}
	streamedBitsPerYear := m.StreamRate.Times(m.Workload.StreamedSecondsPerYear())
	b := streamedBitsPerYear.Scale(target.Years() / m.Device.SpringDutyCycles)
	return b, nil
}

// MaxProbesLifetime returns the supremum of the probes lifetime over all
// buffer sizes: the lifetime at perfect capacity utilisation. Beyond the
// streaming rate at which even this ceiling falls short of a target, no
// buffer size can save the probes.
func (m Model) MaxProbesLifetime() units.Duration {
	return Probes(m.Device, m.userWritesPerYear().Scale(1/m.Layout.MaxUtilisation()))
}

// BufferForProbes returns the smallest buffer size whose probes lifetime
// reaches the target, or an error if the target exceeds MaxProbesLifetime.
// The probes lifetime is proportional to the capacity utilisation u(B), so
// the inverse reduces to the formatting inverse.
func (m Model) BufferForProbes(target units.Duration) (units.Size, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if target <= 0 {
		return 0, nil
	}
	if m.Workload.WriteFraction == 0 {
		return 0, nil
	}
	max := m.MaxProbesLifetime()
	if target > max {
		return 0, fmt.Errorf("lifetime: probes cannot reach %v at %v (ceiling %v)",
			target, m.StreamRate, max)
	}
	// Required utilisation: u >= target / (lifetime at u = 1).
	lifetimeAtFullUtilisation := endurance(m.Device).DivideBy(m.userWritesPerYear()) // years
	required := target.Years() / lifetimeAtFullUtilisation
	su, err := m.Layout.MinUserBitsForUtilisation(required)
	if err != nil {
		return 0, fmt.Errorf("lifetime: probes target %v needs utilisation %.4f: %w", target, required, err)
	}
	return su, nil
}
