package sim

// Multi-stream simulation: one shared device servicing several concurrent
// stream buffers under a pluggable scheduling policy, the executable
// counterpart of internal/multistream's closed-form super-cycle model. The
// per-stream buffers drain continuously; the device wakes when any buffer
// falls to its wake level, repositions to each stream region in turn (paying
// the backend's positioning transition per stream, exactly like the closed
// form's inter-stream seeks), refills that stream at the media rate, serves
// the best-effort backlog, tops off the stream it serviced last and shuts
// down again.

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// MultiStream describes one stream of a shared-device simulation.
type MultiStream struct {
	// Name labels the stream in results.
	Name string
	// Spec is the stream's workload description; any kind works (CBR, VBR,
	// frame-accurate video, user frame traces). The write mix comes from
	// Spec.WriteFraction.
	Spec workload.StreamSpec
	// Buffer is the stream's dedicated buffer capacity.
	Buffer units.Size
	// Priority is the stream's service class under engine.PolicyPriority:
	// higher values are serviced first within a wake-up (a recording
	// guarding a live signal outranks playback, for example). Other
	// policies ignore it.
	Priority int
}

// MultiConfig describes one shared-device simulation run.
type MultiConfig struct {
	// Device is the MEMS storage device (ignored by the cycle machinery when
	// Backend is set, but still used for MEMS-specific wear projections).
	Device device.MEMS
	// Backend optionally selects the device driven through the refill cycle,
	// as in Config.Backend. Leave nil to simulate the MEMS Device above.
	Backend engine.Backend
	// DRAM is the buffer model shared by all stream buffers.
	DRAM device.DRAM
	// Streams are the concurrent streams sharing the device.
	Streams []MultiStream
	// Policy selects the service order within a wake-up. The zero value is
	// engine.PolicyRoundRobin (the paper's gated cycle model).
	Policy engine.Policy
	// BestEffort is the background request process. Leave the zero value for
	// clean streams with no best-effort traffic.
	BestEffort workload.BestEffortProcess
	// Duration is the simulated streaming time.
	Duration units.Duration
	// Seed records the replica seed Reset and RunMultiReplicas derive the
	// stream and best-effort seeds from. The run itself never reads it: it
	// draws only from each stream's Spec.Seed and from BestEffort.Seed.
	Seed uint64
}

// MediaRate returns the media transfer rate of the simulated device.
func (c MultiConfig) MediaRate() units.BitRate {
	return backendOf(c.Backend, c.Device).MediaRate()
}

// policy returns the effective scheduling policy (round-robin by default).
func (c MultiConfig) policy() engine.Policy {
	if c.Policy == "" {
		return engine.PolicyRoundRobin
	}
	return c.Policy
}

// AggregateRate returns the sum of the streams' long-run average demands.
func (c MultiConfig) AggregateRate() units.BitRate {
	var total units.BitRate
	for _, s := range c.Streams {
		total = total.Add(s.Spec.AverageRate())
	}
	return total
}

// Validate checks the configuration: valid parts, schedulable policy, and an
// admissible stream set (aggregate average demand and every stream's peak
// demand below the media rate).
func (c MultiConfig) Validate() error {
	errs := validateDevice(c.Backend, c.Device, c.DRAM)
	if err := c.policy().Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(c.Streams) == 0 {
		errs = append(errs, errors.New("sim: at least one stream is required"))
	}
	mediaRate := c.MediaRate()
	for i, s := range c.Streams {
		if err := s.Spec.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): %w", i, s.Name, err))
			continue
		}
		if !s.Buffer.Positive() {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): buffer must be positive", i, s.Name))
		} else if math.IsInf(s.Buffer.Bits(), 1) {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): buffer must be finite", i, s.Name))
		}
		if peak := s.Spec.PeakRate(); mediaRate.Positive() && peak >= mediaRate {
			errs = append(errs, fmt.Errorf("sim: stream %d (%s): peak demand %v must be below the media rate %v",
				i, s.Name, peak, mediaRate))
		}
	}
	if len(errs) == 0 && mediaRate.Positive() && c.AggregateRate() >= mediaRate {
		errs = append(errs, fmt.Errorf("sim: aggregate stream rate %v must be below the media rate %v",
			c.AggregateRate(), mediaRate))
	}
	if err := c.BestEffort.Validate(); err != nil {
		errs = append(errs, err)
	}
	if !c.Duration.Positive() {
		errs = append(errs, errors.New("sim: duration must be positive"))
	} else if math.IsInf(c.Duration.Seconds(), 1) {
		errs = append(errs, errors.New("sim: duration must be finite"))
	}
	return errors.Join(errs...)
}

// NamedStats is one stream's statistics in a multi-stream result.
type NamedStats struct {
	// Name labels the stream (from MultiStream.Name).
	Name string
	// Stats holds the stream's own accounting: streamed bits, underruns,
	// playback metrics, and the seek/transfer time and energy attributed to
	// servicing its buffer.
	Stats
}

// MultiStats is what a shared-device run observed: the aggregate device
// accounting plus one statistics record per stream.
type MultiStats struct {
	// Device is the aggregate accounting: all state residencies and energy,
	// the summed stream traffic, best-effort service and the background
	// writes it makes, and DRAM energy.
	// RefillCycles counts device wake-ups (super-cycles), not per-stream
	// refills.
	Device Stats
	// Streams holds the per-stream records in configuration order; each
	// stream's RefillCycles counts its own buffer refills.
	Streams []NamedStats
}

// EnergyShare returns stream i's share of the total device energy: the seek
// and transfer energy attributed to servicing its buffer, plus a
// streamed-bits-proportional share of the energy spent in shared states
// (standby, shutdown, best-effort).
func (m *MultiStats) EnergyShare(i int) float64 {
	total := m.Device.DeviceEnergy()
	if total.Joules() <= 0 {
		return 0
	}
	var attributed units.Energy
	for j := range m.Streams {
		attributed = attributed.Add(m.Streams[j].DeviceEnergy())
	}
	own := m.Streams[i].DeviceEnergy()
	if m.Device.StreamedBits.Positive() {
		shared := total.Sub(attributed)
		own = own.Add(shared.Scale(m.Streams[i].StreamedBits.DivideBy(m.Device.StreamedBits)))
	}
	return own.Joules() / total.Joules()
}

// MultiSimulator runs several streams through the refill cycle of one
// shared device. It owns the demand patterns, the engine core and the
// engine.Cycle the core runs under, for Simulator too: that is its
// one-stream, round-robin case.
type MultiSimulator struct {
	cfg MultiConfig
	// patterns are the per-stream demand patterns in configuration order,
	// kept so a rewind can reseed them in place.
	patterns []workload.Pattern
	core     *engine.MultiCore
	cycle    engine.Cycle
}

// NewMulti builds a multi-stream simulator from a validated configuration.
func NewMulti(cfg MultiConfig) (*MultiSimulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newMultiValidated(cfg)
}

// newMultiValidated builds a simulator assuming cfg already passed Validate,
// so batch runners validating a whole batch once do not pay per-replica
// re-validation.
func newMultiValidated(cfg MultiConfig) (*MultiSimulator, error) {
	// The simulator owns its Streams slice: Reset re-seeds the entries in
	// place, which must never reach through to the caller's slice.
	cfg.Streams = append([]MultiStream(nil), cfg.Streams...)
	s := &MultiSimulator{}
	if i, err := s.build(cfg); err != nil {
		return nil, fmt.Errorf("sim: stream %d (%s): %w", i, cfg.Streams[i].Name, err)
	}
	return s, nil
}

// build makes the simulator for cfg, whose Streams slice it then owns: each
// stream's demand pattern over the run's duration, the engine core over
// them and the one Cycle every run follows. When a pattern fails, failed is
// its stream's index, so each simulator can name the stream its own way;
// otherwise it is -1.
func (s *MultiSimulator) build(cfg MultiConfig) (failed int, err error) {
	s.cfg = cfg
	s.cycle = engine.Cycle{Policy: cfg.policy(), DRAM: cfg.DRAM, BestEffort: cfg.BestEffort}
	configs := make([]engine.StreamConfig, len(cfg.Streams))
	s.patterns = make([]workload.Pattern, len(cfg.Streams))
	for i, st := range cfg.Streams {
		if s.patterns[i], err = st.Spec.Pattern(cfg.Duration); err != nil {
			return i, err
		}
		configs[i] = engine.StreamConfig{
			Source:        s.patterns[i],
			Buffer:        st.Buffer,
			WriteFraction: st.Spec.WriteFraction,
			Priority:      st.Priority,
		}
	}
	s.core = engine.NewMultiCore(backendOf(cfg.Backend, cfg.Device), configs)
	return -1, nil
}

// ResetFor rewinds the simulator so its next Run replays cfg from scratch,
// reusing the engine core and every stream's demand pattern storage and
// restarting the best-effort request sequence: after a ResetFor, Run
// produces bit-identical statistics to a fresh NewMulti(cfg) run. cfg must
// be reset-compatible with the configuration the simulator was built from —
// identical except for the seeds (Seed, each stream's Spec.Seed,
// BestEffort.Seed); ResetFor reports an error otherwise.
func (s *MultiSimulator) ResetFor(cfg MultiConfig) error {
	if !s.compatible(cfg) {
		return errors.New("sim: ResetFor needs a reset-compatible configuration (identical up to seeds)")
	}
	return s.rewind(cfg)
}

// compatible reports whether cfg is identical to the simulator's
// configuration up to its seed fields (the run seed, each stream's spec seed
// and the best-effort seed), so rewind can replay it.
func (s *MultiSimulator) compatible(cfg MultiConfig) bool {
	a, b := s.cfg, cfg
	if len(a.Streams) != len(b.Streams) {
		return false
	}
	a.Seed, b.Seed = 0, 0
	a.BestEffort.Seed, b.BestEffort.Seed = 0, 0
	a.Streams = append([]MultiStream(nil), a.Streams...)
	b.Streams = append([]MultiStream(nil), b.Streams...)
	for i := range a.Streams {
		a.Streams[i].Spec.Seed = 0
		b.Streams[i].Spec.Seed = 0
	}
	return reflect.DeepEqual(a, b)
}

// rewind is ResetFor without the compatibility check, for callers that know
// cfg is reset-compatible (Reset derives it from the stored configuration;
// the pooled runner checks it first), and the one rewind of both
// simulators. cfg's stream entries are copied into the simulator-owned
// slice, so later in-place reseeds never reach through to the caller's. The
// patterns reseed in place before the core re-provisions, because the core
// recomputes the wake levels from the reseeded patterns' realized peaks. It
// allocates nothing: the next run draws its best-effort requests as it
// reaches them.
func (s *MultiSimulator) rewind(cfg MultiConfig) error {
	streams := s.cfg.Streams
	copy(streams, cfg.Streams)
	cfg.Streams = streams
	s.cfg = cfg
	for i, st := range streams {
		if err := s.patterns[i].Reset(st.Spec.Seed); err != nil {
			return fmt.Errorf("sim: stream %d (%s): %w", i, st.Name, err)
		}
	}
	s.cycle.BestEffort = cfg.BestEffort
	s.core.Reset()
	return nil
}

// Reset is the common-case ResetFor: it derives every stream's pattern seed
// from the replica seed exactly as the service layer does for its replicas —
// stream j gets seed ^ ((j+1) · golden ratio) so concurrent streams never
// share a random sequence — reseeds the best-effort process with the replica
// seed itself, and rewinds the simulator for the next Run. The derived
// configuration is reset-compatible by construction, so Reset skips the
// compatibility check and adds no allocations of its own.
func (s *MultiSimulator) Reset(seed uint64) error {
	// s.cfg.Streams is the simulator-owned backing; rewind replaces s.cfg
	// wholesale, so reseeding it in place is safe.
	return s.rewind(reseedMultiConfig(s.cfg, seed))
}

// run drives the engine core through the refill cycle over the configured
// duration and returns the device record, which the next rewind wipes. Both
// simulators' Run methods call it after their own wake-level check.
func (s *MultiSimulator) run() (*Stats, error) {
	return s.core.Run(&s.cycle, s.cfg.Duration)
}

// Run executes the simulation and returns the collected statistics. A
// second Run without a reset returns the same statistics and counts nothing
// twice.
func (s *MultiSimulator) Run() (*MultiStats, error) {
	for i, st := range s.cfg.Streams {
		if s.core.WakeLevel(i) >= st.Buffer {
			return nil, fmt.Errorf(
				"sim: stream %d (%s): buffer %v cannot cover a full %d-stream service round at peak demand (wake level %v)",
				i, st.Name, st.Buffer, len(s.cfg.Streams), s.core.WakeLevel(i))
		}
	}
	dev, err := s.run()
	if err != nil {
		return nil, err
	}
	out := &MultiStats{Device: *dev, Streams: make([]NamedStats, len(s.cfg.Streams))}
	for i, st := range s.cfg.Streams {
		out.Streams[i] = NamedStats{Name: st.Name, Stats: *s.core.StreamStats(i)}
	}
	return out, nil
}

// RunMulti is a convenience wrapper: build a multi-stream simulator and run
// it.
func RunMulti(cfg MultiConfig) (*MultiStats, error) {
	s, err := NewMulti(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
