package memstream

import (
	"context"
	"fmt"
	"strings"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/engine"
	"memstream/internal/explore"
	"memstream/internal/lifetime"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Physical quantity types, re-exported so that users of the public API never
// have to reach into internal packages.
type (
	// Size is an amount of data (internally stored in bits).
	Size = units.Size
	// BitRate is a data rate in bits per second.
	BitRate = units.BitRate
	// Duration is a time span in seconds (floating point; spans from
	// microsecond overheads to multi-year lifetimes).
	Duration = units.Duration
	// Power is a power in watts.
	Power = units.Power
	// Energy is an energy in joules.
	Energy = units.Energy
	// EnergyPerBit is a per-bit energy in joules per bit.
	EnergyPerBit = units.EnergyPerBit
)

// Common units, re-exported from internal/units.
const (
	// Bit is one bit.
	Bit = units.Bit
	// Byte is eight bits.
	Byte = units.Byte
	// KiB is 1024 bytes (the paper's buffer "kB").
	KiB = units.KiB
	// MiB is 1024 KiB.
	MiB = units.MiB
	// GiB is 1024 MiB.
	GiB = units.GiB
	// KB is a decimal kilobyte (1000 bytes).
	KB = units.KB
	// MB is a decimal megabyte.
	MB = units.MB
	// GB is a decimal gigabyte (used for device capacities).
	GB = units.GB
	// TB is a decimal terabyte.
	TB = units.TB

	// Kbps is 1000 bits per second.
	Kbps = units.Kbps
	// Mbps is 1000 kbps.
	Mbps = units.Mbps
	// Gbps is 1000 Mbps.
	Gbps = units.Gbps

	// Microsecond is one millionth of a second.
	Microsecond = units.Microsecond
	// Millisecond is one thousandth of a second.
	Millisecond = units.Millisecond
	// Second is one second.
	Second = units.Second
	// Minute is 60 seconds (the span of DefaultSimConfig's run).
	Minute = units.Minute
	// Hour is 3600 seconds.
	Hour = units.Hour
	// Day is 24 hours.
	Day = units.Day
	// Year is a 365-day year.
	Year = units.Year

	// Microwatt is one millionth of a watt.
	Microwatt = units.Microwatt
	// Milliwatt is one thousandth of a watt.
	Milliwatt = units.Milliwatt
	// Watt is one watt.
	Watt = units.Watt
)

// Device and substrate models.
type (
	// Device describes a MEMS probe-storage device (Table I of the paper).
	Device = device.MEMS
	// DRAM describes the streaming buffer in front of the device.
	DRAM = device.DRAM
	// Disk describes the 1.8-inch drive used as the mechanical baseline.
	Disk = device.Disk
	// Workload is the streaming usage pattern (hours/day, write share,
	// best-effort share).
	Workload = lifetime.Workload
)

// DefaultDevice returns the paper's Table I MEMS device with nickel springs
// (1e8 duty cycles) and 100 probe write cycles.
func DefaultDevice() Device { return device.DefaultMEMS() }

// ImprovedDevice returns the Fig. 3c durability scenario: 200 probe write
// cycles and silicon springs rated at 1e12 duty cycles.
func ImprovedDevice() Device { return device.ImprovedMEMS() }

// DefaultDRAM returns the Micron TN-46-03-style buffer model.
func DefaultDRAM() DRAM { return device.DefaultDRAM() }

// DefaultDisk returns the 1.8-inch disk baseline.
func DefaultDisk() Disk { return device.Default18InchDisk() }

// DefaultWorkload returns the Table I workload: 8 h/day, 40 % writes, 5 %
// best-effort share.
func DefaultWorkload() Workload { return lifetime.DefaultWorkload() }

// Core model types.
type (
	// Model is the combined energy/capacity/lifetime model at one streaming
	// rate.
	Model = core.Model
	// Options adjusts model construction (workload, DRAM, ablations).
	Options = core.Options
	// Point is the full model evaluation at one buffer size.
	Point = core.Point
	// Goal is a design goal (E, C, L).
	Goal = core.Goal
	// Constraint identifies one of the four requirements (E, C, Lsp, Lpb).
	Constraint = core.Constraint
	// Requirement is the buffer requirement imposed by one constraint.
	Requirement = core.Requirement
	// Dimensioning is the answer to a buffer-dimensioning question.
	Dimensioning = core.Dimensioning
	// EnergyBreakdown splits the per-bit energy by cause.
	EnergyBreakdown = energy.Breakdown
)

// The four constraints, in the paper's notation.
const (
	// ConstraintEnergy is the E requirement.
	ConstraintEnergy = core.ConstraintEnergy
	// ConstraintCapacity is the C requirement.
	ConstraintCapacity = core.ConstraintCapacity
	// ConstraintSprings is the springs part of the L requirement.
	ConstraintSprings = core.ConstraintSprings
	// ConstraintProbes is the probes part of the L requirement.
	ConstraintProbes = core.ConstraintProbes
)

// wrapErr stamps the package's public "memstream: " error prefix onto errors
// crossing the API boundary. It is idempotent so that call chains through
// other exported memstream functions do not stack prefixes, and nil-safe so
// that success paths can wrap unconditionally.
func wrapErr(err error) error {
	if err == nil || strings.HasPrefix(err.Error(), "memstream: ") {
		return err
	}
	return fmt.Errorf("memstream: %w", err)
}

// New builds a model for the given device and streaming rate with the
// Table I workload and default DRAM.
func New(dev Device, rate BitRate) (*Model, error) {
	m, err := core.New(dev, rate)
	return m, wrapErr(err)
}

// NewWithOptions builds a model with explicit overrides.
func NewWithOptions(dev Device, rate BitRate, opts Options) (*Model, error) {
	m, err := core.NewWithOptions(dev, rate, opts)
	return m, wrapErr(err)
}

// PaperGoalA returns the Fig. 3a goal (E=80 %, C=88 %, L=7 years).
func PaperGoalA() Goal { return core.PaperGoalA() }

// PaperGoalB returns the Fig. 3b/3c goal (E=70 %, C=88 %, L=7 years).
func PaperGoalB() Goal { return core.PaperGoalB() }

// PaperGoalC85 returns the Section IV-C variant (E=80 %, C=85 %, L=7 years).
func PaperGoalC85() Goal { return core.PaperGoalC85() }

// Design-space exploration types.
type (
	// Sweep is a dimensioning sweep over streaming rates.
	Sweep = explore.Sweep
	// RatePoint is one rate's dimensioning result within a sweep.
	RatePoint = explore.RatePoint
	// Regime is a contiguous rate range dominated by one constraint.
	Regime = explore.Regime
	// BufferCurve is a forward sweep over buffer sizes at a fixed rate.
	BufferCurve = explore.BufferCurve
)

// Explore dimensions the buffer for the goal at n log-spaced rates between
// minRate and maxRate. The per-rate dimensioning fans out over one worker
// per CPU; use ExploreContext to bound the pool or cancel the sweep.
func Explore(dev Device, goal Goal, minRate, maxRate BitRate, n int) (*Sweep, error) {
	return ExploreContext(context.Background(), 0, dev, goal, minRate, maxRate, n)
}

// ExploreContext is Explore with explicit cancellation and worker bound.
// workers <= 0 uses one worker per CPU; workers == 1 forces the sequential
// path. The sweep output is identical at any worker count.
func ExploreContext(ctx context.Context, workers int, dev Device, goal Goal, minRate, maxRate BitRate, n int) (*Sweep, error) {
	return ExploreWithOptionsContext(ctx, workers, dev, goal, Options{}, minRate, maxRate, n)
}

// ExploreWithOptions is Explore with model-construction overrides.
func ExploreWithOptions(dev Device, goal Goal, opts Options, minRate, maxRate BitRate, n int) (*Sweep, error) {
	return ExploreWithOptionsContext(context.Background(), 0, dev, goal, opts, minRate, maxRate, n)
}

// ExploreWithOptionsContext is ExploreWithOptions with explicit cancellation
// and worker bound, with the same semantics as ExploreContext.
func ExploreWithOptionsContext(ctx context.Context, workers int, dev Device, goal Goal, opts Options,
	minRate, maxRate BitRate, n int) (*Sweep, error) {

	rates, err := explore.LogSpace(minRate, maxRate, n)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	sweep, err := explore.RunContext(ctx, explore.Config{Device: dev, Goal: goal, Options: opts, Workers: workers}, rates)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return sweep, nil
}

// SweepBuffer evaluates the model at n buffer sizes between lo and hi at a
// fixed rate (the Fig. 2 style forward curves). The per-point evaluation
// fans out over one worker per CPU; use SweepBufferContext to bound it.
func SweepBuffer(dev Device, rate BitRate, lo, hi Size, n int) (*BufferCurve, error) {
	return SweepBufferContext(context.Background(), 0, dev, rate, lo, hi, n)
}

// SweepBufferContext is SweepBuffer with explicit cancellation and worker
// bound, with the same semantics as ExploreContext.
func SweepBufferContext(ctx context.Context, workers int, dev Device, rate BitRate, lo, hi Size, n int) (*BufferCurve, error) {
	curve, err := explore.SweepBufferContext(ctx, dev, rate, core.Options{}, lo, hi, n, workers)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return curve, nil
}

// Simulation types.
type (
	// SimConfig describes one discrete-event simulation run.
	SimConfig = sim.Config
	// SimStats is what the simulator observed.
	SimStats = sim.Stats
	// SimBackend is a pluggable device backend for the event-driven
	// simulation engine: power per cycle state, the positioning and shutdown
	// transitions, the media rate and the write-wear inflation. Assign one
	// to SimConfig.Backend to simulate a device other than the MEMS default.
	SimBackend = engine.Backend
	// BestEffortProcess generates background OS/file-system requests.
	BestEffortProcess = workload.BestEffortProcess
	// PlaybackCalendar converts daily usage into yearly totals.
	PlaybackCalendar = workload.PlaybackCalendar
)

// DevicePowerState identifies one of the refill-cycle power states indexing
// SimStats.StateTime and SimStats.StateEnergy.
type DevicePowerState = device.PowerState

// The refill-cycle power states, in cycle order.
const (
	// StateSeek is the positioning transition before a refill (the sled
	// seek for MEMS, spin-up plus seek for the disk backend).
	StateSeek = device.StateSeek
	// StateReadWrite is the media transfer during a refill.
	StateReadWrite = device.StateReadWrite
	// StateShutdown is the transition from active to standby.
	StateShutdown = device.StateShutdown
	// StateStandby is the deep low-power state between refills.
	StateStandby = device.StateStandby
	// StateIdle is the ready-but-not-transferring state of an always-on
	// device.
	StateIdle = device.StateIdle
	// StateBestEffort is media activity spent on non-streaming requests.
	StateBestEffort = device.StateBestEffort
)

// NewBestEffortProcess returns a background request process targeting the
// given share of device-active time.
func NewBestEffortProcess(fraction float64, serviceRate BitRate, seed uint64) BestEffortProcess {
	return workload.NewBestEffortProcess(fraction, serviceRate, seed)
}

// DefaultCalendar returns the eight-hours-every-day playback calendar.
func DefaultCalendar() PlaybackCalendar { return workload.DefaultCalendar() }

// Simulate runs a discrete-event simulation of the MEMS + DRAM streaming
// architecture and returns its statistics.
func Simulate(cfg SimConfig) (*SimStats, error) {
	stats, err := sim.RunConfig(cfg)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return stats, nil
}

// SimulateBatch runs many independent simulations concurrently on one worker
// per CPU and returns the statistics in input order. Each worker keeps one
// simulator: an entry identical to that simulator's configuration except for
// seeds rewinds it in place instead of rebuilding state, and any other entry
// builds and validates a fresh one. The results are bit-identical to calling
// Simulate on each configuration in sequence.
func SimulateBatch(cfgs ...SimConfig) ([]*SimStats, error) {
	return SimulateBatchContext(context.Background(), 0, cfgs)
}

// SimulateBatchContext is SimulateBatch with explicit cancellation and
// worker bound. workers <= 0 uses one worker per CPU; workers == 1 forces
// the sequential path. The first failing configuration aborts the batch.
func SimulateBatchContext(ctx context.Context, workers int, cfgs []SimConfig) ([]*SimStats, error) {
	stats, err := sim.RunBatch(ctx, workers, cfgs)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return stats, nil
}

// MEMSBackend wraps a MEMS device as a simulation backend. SimConfig runs
// against it implicitly when Backend is nil, so it is only needed to pass a
// MEMS device through backend-generic plumbing such as DefaultSimConfigFor.
func MEMSBackend(dev Device) SimBackend { return engine.NewMEMS(dev) }

// DiskBackend wraps a 1.8-inch disk drive as a simulation backend: the
// positioning transition is the spin-up plus an average seek, the shutdown
// transition the spin-down. Assign it to SimConfig.Backend (or use
// SimulateDisk / DefaultDiskSimConfig) to simulate the paper's mechanical
// baseline through the same refill cycle as the MEMS device.
func DiskBackend(d Disk) SimBackend { return engine.NewDisk(d) }

// DefaultSimConfig returns a ready-to-run simulation of the Table I device
// streaming at the given rate through the given buffer for five minutes,
// including the 5 % best-effort load.
func DefaultSimConfig(rate BitRate, buffer Size) SimConfig {
	dev := device.DefaultMEMS()
	return SimConfig{
		Device:     dev,
		DRAM:       device.DefaultDRAM(),
		Buffer:     buffer,
		Spec:       workload.CBRSpec(rate),
		BestEffort: workload.NewBestEffortProcess(0.05, dev.MediaRate(), 1),
		Duration:   5 * units.Minute,
		Seed:       1,
	}
}

// DefaultSimConfigFor is the backend-aware DefaultSimConfig: a ready-to-run
// five-minute CBR simulation of the given device backend, with the 5 %
// best-effort load served at the backend's media rate. For a MEMS backend
// the Device field is populated too, so the MEMS-specific wear projections
// (ProjectedSpringsLifetime, ProjectedProbesLifetime) stay available.
func DefaultSimConfigFor(b SimBackend, rate BitRate, buffer Size) SimConfig {
	cfg := SimConfig{
		Backend:    b,
		DRAM:       device.DefaultDRAM(),
		Buffer:     buffer,
		Spec:       workload.CBRSpec(rate),
		BestEffort: workload.NewBestEffortProcess(0.05, b.MediaRate(), 1),
		Duration:   5 * units.Minute,
		Seed:       1,
	}
	if m, ok := b.(interface{ Device() device.MEMS }); ok {
		cfg.Device = m.Device()
	}
	return cfg
}

// BreakEvenBuffer returns the break-even streaming buffer of the MEMS device
// at the given rate (Section III-A.1).
func BreakEvenBuffer(dev Device, rate BitRate) (Size, error) {
	b, err := energy.BreakEvenBuffer(energy.MEMSBreakEvenAdapter{Device: dev}, rate)
	if err != nil {
		return 0, fmt.Errorf("memstream: %w", err)
	}
	return b, nil
}

// DiskBreakEvenBuffer returns the break-even streaming buffer of the disk
// baseline at the given rate.
func DiskBreakEvenBuffer(d Disk, rate BitRate) (Size, error) {
	b, err := energy.BreakEvenBuffer(energy.DiskBreakEvenAdapter{Disk: d}, rate)
	if err != nil {
		return 0, fmt.Errorf("memstream: %w", err)
	}
	return b, nil
}
