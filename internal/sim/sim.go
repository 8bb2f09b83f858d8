// Package sim contains a discrete-event simulator of the streaming
// storage + DRAM architecture of Fig. 1: a stream drains (or fills) the DRAM
// buffer continuously while the storage device wakes up periodically to
// position, refill the buffer at the media rate, serve queued best-effort
// requests, and shut down again.
//
// The simulator exists to validate the analytical models of internal/energy
// and internal/lifetime against an executable system model, to support
// workloads the closed forms cannot express (variable-bit-rate streams,
// bursty best-effort traffic), and to exercise the ECC substrate end to end
// through an optional media bit-error model.
//
// The cycle machinery and per-state accounting live in internal/engine: an
// event-driven core that integrates demand exactly across its rate changes,
// where only a refill ends at a segment end, and only at its own stream's,
// and charges time and energy against a pluggable device backend: the MEMS
// device of Config.Device by default, or any engine.Backend (for example
// the 1.8-inch disk baseline) through Config.Backend, so the paper's
// break-even comparison can be validated by simulation. Demand is described
// one way, by a workload.StreamSpec.
//
// Both simulators are one simulator. MultiSimulator owns the demand
// patterns, the engine core and the engine.Cycle, and builds, rewinds and
// runs them one way for any number of streams; Simulator is its one-stream,
// round-robin case plus the ECC error model, which it samples once per
// refill cycle after the run. What stays apart is what the goldens and
// digests pin: the validation and wake-level texts (the service contract
// golden), the two replica seed conventions (reseedConfig and
// reseedMultiConfig, behind every replica output and perfbench digest) and
// the result shapes.
package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"memstream/internal/device"
	"memstream/internal/ecc"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Stats accumulates everything observed during a run. It is the engine's
// statistics record; the public facade re-exports it as memstream.SimStats.
type Stats = engine.Stats

// Config describes one simulation run.
type Config struct {
	// Device is the MEMS storage device (ignored by the cycle machinery when
	// Backend is set, but still used for MEMS-specific wear projections).
	Device device.MEMS
	// Backend optionally selects the device driven through the refill cycle
	// — engine.NewDisk for the 1.8-inch baseline, or any custom
	// engine.Backend. Leave nil to simulate the MEMS Device above.
	Backend engine.Backend
	// DRAM is the buffer in front of it.
	DRAM device.DRAM
	// Buffer is the streaming-buffer capacity B.
	Buffer units.Size
	// Spec describes the stream: any workload kind (CBR, VBR, frame-accurate
	// video, user frame traces). The simulator derives the demand pattern
	// from it — for video, with the trace horizon tied to Duration (capped
	// at workload.MaxTraceHorizon, wrapping beyond) — and takes the write
	// mix from Spec.WriteFraction.
	Spec workload.StreamSpec
	// BestEffort is the background request process. Leave the zero value for
	// a clean stream with no best-effort traffic.
	BestEffort workload.BestEffortProcess
	// Duration is the simulated streaming time.
	Duration units.Duration
	// BitErrorRate is the raw media bit-error rate exercised through the ECC
	// codec on eccSampleWords codewords per refill (zero disables the error
	// model).
	BitErrorRate float64
	// Seed makes the run reproducible.
	Seed uint64
}

// eccSampleWords is the number of codewords the error model samples per
// refill.
const eccSampleWords = 8

// MediaRate returns the media transfer rate of the device the configuration
// simulates.
func (c Config) MediaRate() units.BitRate {
	return backendOf(c.Backend, c.Device).MediaRate()
}

// backendOf returns the device backend a run drives: backend when set, the
// MEMS device otherwise. Both configurations resolve it here, so callers
// sizing best-effort processes against the media rate cannot diverge from
// the simulator.
func backendOf(backend engine.Backend, dev device.MEMS) engine.Backend {
	if backend != nil {
		return backend
	}
	return engine.NewMEMS(dev)
}

// validateDevice checks the device and the DRAM behind a run, the checks
// both configurations open with. The device is always validated: the MEMS
// device directly, or the backend through its Validate method.
func validateDevice(backend engine.Backend, dev device.MEMS, dram device.DRAM) []error {
	var errs []error
	if err := backendOf(backend, dev).Validate(); err != nil {
		errs = append(errs, err)
	}
	if backend != nil && !backend.MediaRate().Positive() {
		// Custom backends may validate loosely; the engine still needs a
		// positive media rate to form a refill cycle at all.
		errs = append(errs, errors.New("sim: backend media rate must be positive"))
	}
	if err := dram.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// Validate checks the configuration. The device behind the run is always
// validated: the MEMS Device directly, or the Backend through its Validate
// method.
func (c Config) Validate() error {
	errs := validateDevice(c.Backend, c.Device, c.DRAM)
	if err := c.Spec.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.BestEffort.Validate(); err != nil {
		errs = append(errs, err)
	}
	if !c.Buffer.Positive() {
		errs = append(errs, errors.New("sim: buffer must be positive"))
	} else if math.IsInf(c.Buffer.Bits(), 1) {
		errs = append(errs, errors.New("sim: buffer must be finite"))
	}
	if !c.Duration.Positive() {
		errs = append(errs, errors.New("sim: duration must be positive"))
	} else if math.IsInf(c.Duration.Seconds(), 1) {
		errs = append(errs, errors.New("sim: duration must be finite"))
	}
	if mediaRate := c.MediaRate(); mediaRate.Positive() {
		// The peak bound covers the average too, but both checks name the
		// quantity a user would recognise in the error. RateBounds scans a
		// trace once for both values.
		average, peak := c.Spec.RateBounds()
		if average >= mediaRate {
			errs = append(errs, errors.New("sim: stream rate must be below the media rate"))
		}
		if peak >= mediaRate {
			errs = append(errs, errors.New("sim: the stream's peak demand must be below the media rate"))
		}
	}
	if !(c.BitErrorRate >= 0 && c.BitErrorRate < 1) {
		errs = append(errs, errors.New("sim: bit-error rate must be in [0, 1)"))
	}
	return errors.Join(errs...)
}

// Simulator runs one stream through the refill cycle: it is the one-stream,
// round-robin MultiSimulator plus the ECC error model, whose draws come from
// the simulator's own RNG.
type Simulator struct {
	multi MultiSimulator
	cfg   Config
	rng   workload.Rng
	// sampled counts the refill cycles the error model has sampled since the
	// last rewind, so a second Run samples none again.
	sampled int
}

// New builds a simulator from a validated configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newValidated(cfg)
}

// newValidated builds a simulator assuming cfg already passed Validate, so
// batch runners validating a whole batch once do not pay per-replica
// re-validation. A pattern error comes back without a stream prefix: the
// configuration has only the one stream.
func newValidated(cfg Config) (*Simulator, error) {
	s := &Simulator{cfg: cfg}
	s.rng.Seed(cfg.Seed ^ 0xdeadbeefcafef00d)
	if _, err := s.multi.build(MultiConfig{
		Device:     cfg.Device,
		Backend:    cfg.Backend,
		DRAM:       cfg.DRAM,
		Streams:    []MultiStream{{Spec: cfg.Spec, Buffer: cfg.Buffer}},
		Policy:     engine.PolicyRoundRobin,
		BestEffort: cfg.BestEffort,
		Duration:   cfg.Duration,
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// ResetFor rewinds the simulator so its next Run replays cfg from scratch,
// reusing the engine core and the demand pattern's storage and restarting
// the best-effort request sequence: after a ResetFor, Run produces
// bit-identical statistics to a fresh New(cfg) run. cfg must be reset-
// compatible with the configuration the simulator was built from — identical
// except for the seeds (Seed, Spec.Seed, BestEffort.Seed); ResetFor reports
// an error otherwise.
func (s *Simulator) ResetFor(cfg Config) error {
	if !s.compatible(cfg) {
		return errors.New("sim: ResetFor needs a reset-compatible configuration (identical up to seeds)")
	}
	return s.rewind(cfg)
}

// compatible reports whether cfg is identical to the simulator's
// configuration up to its seed fields, so rewind can replay it.
func (s *Simulator) compatible(cfg Config) bool {
	a, b := s.cfg, cfg
	a.Seed, b.Seed = 0, 0
	a.Spec.Seed, b.Spec.Seed = 0, 0
	a.BestEffort.Seed, b.BestEffort.Seed = 0, 0
	return reflect.DeepEqual(a, b)
}

// rewind is ResetFor without the compatibility check, for callers that know
// cfg is reset-compatible (Reset derives it from the stored configuration;
// the pooled runner checks it first). It reseeds the run RNG, writes the
// replica's Spec and BestEffort into the one-stream configuration in place
// and hands it to the shared rewind, so it allocates nothing in steady
// state.
func (s *Simulator) rewind(cfg Config) error {
	s.cfg = cfg
	s.rng.Seed(cfg.Seed ^ 0xdeadbeefcafef00d)
	s.sampled = 0
	one := s.multi.cfg
	one.Streams[0].Spec = cfg.Spec
	one.BestEffort = cfg.BestEffort
	return s.multi.rewind(one)
}

// Reset is the common-case ResetFor: it re-seeds every stochastic input —
// the run's own RNG, the demand pattern and the best-effort process — with
// the same replica seed, exactly as the service layer derives its replicas,
// and rewinds the simulator for the next Run. The derived configuration is
// reset-compatible by construction, so Reset skips the compatibility check
// and runs allocation-free.
func (s *Simulator) Reset(seed uint64) error {
	return s.rewind(reseedConfig(s.cfg, seed))
}

// injectErrors exercises the ECC codec with the configured raw bit-error rate
// on a sample of codewords for every refill cycle of the run not sampled yet.
// Nothing else draws from the simulator's RNG, so sampling after the run
// draws what sampling each cycle as it ends would.
func (s *Simulator) injectErrors(stats *Stats) {
	if s.cfg.BitErrorRate <= 0 {
		return
	}
	expectedFlipsPerWord := s.cfg.BitErrorRate * float64(ecc.CodewordBits)
	for words := (stats.RefillCycles - s.sampled) * eccSampleWords; words > 0; words-- {
		word := s.rng.Uint64()
		cw := ecc.Encode(word)
		flips := poissonSample(&s.rng, expectedFlipsPerWord)
		for f := 0; f < flips; f++ {
			pos := s.rng.Intn(ecc.CodewordBits)
			if pos < ecc.DataBits {
				cw = cw.FlipDataBit(pos)
			} else {
				cw = cw.FlipParityBit(pos - ecc.DataBits)
			}
		}
		decoded, corrected, err := ecc.Decode(cw)
		if err != nil {
			stats.ECCUncorrectable++
			continue
		}
		stats.ECCCorrected += corrected
		if flips == 0 && decoded != word {
			// This cannot happen with a correct codec; record it as an
			// uncorrectable event so tests would catch a regression.
			stats.ECCUncorrectable++
		}
	}
	s.sampled = stats.RefillCycles
}

// poissonSample draws a Poisson-distributed count with the given mean using
// Knuth's method (the means used here are far below one).
func poissonSample(rng *workload.Rng, mean float64) int {
	if mean <= 0 {
		return 0
	}
	limit := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// Run executes the simulation and returns the collected statistics. A
// second Run without a reset returns the same statistics and counts nothing
// twice.
func (s *Simulator) Run() (*Stats, error) {
	// Wake the device early enough that the buffer survives the positioning
	// transition at the stream's peak demand, with a small safety margin.
	if s.multi.core.WakeLevel(0) >= s.cfg.Buffer {
		return nil, fmt.Errorf("sim: buffer %v cannot even cover the %v positioning time at peak demand",
			s.cfg.Buffer, backendOf(s.cfg.Backend, s.cfg.Device).PositioningTime())
	}
	stats, err := s.multi.run()
	if err != nil {
		return nil, err
	}
	s.injectErrors(stats)
	return stats, nil
}

// RunConfig is a convenience wrapper: build a simulator and run it.
func RunConfig(cfg Config) (*Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
