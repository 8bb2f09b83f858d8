package sim

// The one simulator core behind Simulator and MultiSimulator. Both embed a
// runner: it builds the per-stream demand patterns, the unified scheduling
// core (internal/engine.MultiCore) and the engine.Cycle the core runs every
// refill cycle under, and rewinds them between replicas. A single-stream
// run is built as the one-stream shared device, so the two simulators run
// the same cycle rule. What is left to differ is their surface: the seed
// conventions (reseedConfig, reseedMultiConfig), the validation and
// wake-check texts, the result shapes, and the single-stream ECC error
// model, which Simulator.Run samples once per refill cycle after the run.

import (
	"errors"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

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

// runner is the simulator core. It owns the per-stream demand patterns, the
// engine core that runs the refill cycle over them, and the Cycle rules the
// core runs under. Both simulators embed one, built the same way.
type runner struct {
	// patterns are the per-stream demand patterns in configuration order,
	// kept so a rewind can reseed them in place.
	patterns []workload.Pattern
	core     *engine.MultiCore
	cycle    engine.Cycle
	duration units.Duration
}

// build makes the run's engine core from the shared-device configuration it
// amounts to — a single-stream Config is its one stream — with each stream's
// demand pattern over the run's duration and the one Cycle every run
// follows. When a pattern fails, failed is its stream's index, so each
// simulator can name the stream its own way; otherwise it is -1.
func (r *runner) build(cfg MultiConfig) (failed int, err error) {
	r.duration = cfg.Duration
	r.cycle = engine.Cycle{Policy: cfg.policy(), DRAM: cfg.DRAM, BestEffort: cfg.BestEffort}
	configs := make([]engine.StreamConfig, len(cfg.Streams))
	r.patterns = make([]workload.Pattern, len(cfg.Streams))
	for i, s := range cfg.Streams {
		if r.patterns[i], err = s.Spec.Pattern(r.duration); err != nil {
			return i, err
		}
		configs[i] = engine.StreamConfig{
			Source:        r.patterns[i],
			Buffer:        s.Buffer,
			WriteFraction: s.Spec.WriteFraction,
			Priority:      s.Priority,
		}
	}
	r.core = engine.NewMultiCore(backendOf(cfg.Backend, cfg.Device), configs)
	return -1, nil
}

// restart readies the core for the next run under the given best-effort
// process. It must follow the pattern reseeds, because the core recomputes
// the wake levels from the reseeded patterns' realized peaks. It allocates
// nothing: the next run draws its best-effort requests as it reaches them.
func (r *runner) restart(be workload.BestEffortProcess) {
	r.cycle.BestEffort = be
	r.core.Reset()
}
