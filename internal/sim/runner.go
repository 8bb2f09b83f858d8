package sim

// The one simulator core behind Simulator and MultiSimulator. Both embed a
// runner: it builds the per-stream demand patterns and the unified
// scheduling core (internal/engine.MultiCore) over the run's backend,
// rewinds them between replicas, and drives the one wake/service/shutdown
// cycle loop to the end of a run. The few genuine behavioural differences
// of the single-stream model — the post-best-effort top-off refill, the ECC
// error model, background writes wearing the stream's own formatted region,
// and the full-buffer DRAM access charge per cycle — are runner knobs
// instead of a second loop.

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

// runner is the simulator core. It owns the backend, the per-stream demand
// patterns and the engine core, and drives the core through the refill-cycle
// state machine: standby until a wake level trips, service every stream in
// policy order, serve the best-effort backlog, shut down, and charge the
// cycle's DRAM energy. Both simulators embed one and differ only in its
// knobs.
type runner struct {
	backend engine.Backend
	// patterns are the per-stream demand patterns in configuration order,
	// kept so a rewind can reseed them in place.
	patterns []workload.Pattern
	core     *engine.MultiCore
	policy   engine.Policy
	dram     device.DRAM
	duration units.Duration

	bestEffort workload.BestEffortProcess
	// arrivals draws the background requests as the clock reaches them.
	arrivals workload.BestEffortArrivals

	// topOff refills stream 0 again after the best-effort backlog, restoring
	// what drained during background service before the shutdown — the
	// single-stream cycle shape.
	topOff bool
	// inflateBestEffortWrites routes background writes through stream 0's
	// formatting inflation (the single-stream rule, where the background
	// region shares the stream's sector layout); otherwise they are credited
	// uninflated against the device (the shared-device rule).
	inflateBestEffortWrites bool
	// fixedCycleAccess, when positive, charges the DRAM access energy of
	// that volume in and out per cycle (the single-stream rule: one full
	// buffer pass each way); otherwise the actually refilled volume of the
	// cycle is charged (the shared-device rule).
	fixedCycleAccess units.Size
	// injectErrors, when non-nil, runs once per cycle after the refills (the
	// single-stream ECC error model).
	injectErrors func()
}

// build makes each stream's demand pattern for the run's duration, which
// must be set first, and the engine core over them, then starts the
// best-effort sequence. When a pattern fails, failed is its stream's index,
// so each simulator can name the stream its own way; otherwise it is -1.
func (r *runner) build(backend engine.Backend, streams []MultiStream, be workload.BestEffortProcess) (failed int, err error) {
	configs := make([]engine.StreamConfig, len(streams))
	r.patterns = make([]workload.Pattern, len(streams))
	for i, s := range streams {
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
	r.backend = backend
	r.core = engine.NewMultiCore(backend, configs)
	return -1, r.rewindRequests(be)
}

// restart readies the core for the next run: it restarts the best-effort
// sequence and re-provisions the core. It must follow the pattern reseeds,
// because the core recomputes the wake levels from the reseeded patterns'
// realized peaks. It allocates nothing: the best-effort requests are drawn
// afresh as the next run reaches them.
func (r *runner) restart(be workload.BestEffortProcess) error {
	if err := r.rewindRequests(be); err != nil {
		return err
	}
	r.core.Reset()
	return nil
}

// run executes the cycle loop to the configured duration, finalizes the
// device record's SimulatedTime and best-effort DRAM energy, folds the run
// into the process-wide observability totals once and returns the record,
// which the next restart wipes. It allocates nothing: every per-cycle
// quantity lives in the core or in the runner.
func (r *runner) run() *Stats {
	end := r.duration
	dev := r.core.DeviceStats()
	lastCycleEnd := units.Duration(0)
	lastMediaBits := units.Size(0)
	for r.core.Now() < end {
		// Standby until some stream's buffer falls to its wake level.
		if r.core.DrainToWake(device.StateStandby, end) < 0 {
			break
		}

		// One super-cycle: position to each stream region in policy order,
		// refill that stream to full, then serve queued best-effort work and
		// shut down.
		for _, idx := range r.core.ServiceOrder(r.policy) {
			r.core.Positioning(idx)
			r.core.RefillStream(idx)
			r.core.StreamStats(idx).RefillCycles++
		}
		r.serveBestEffort()
		if r.topOff {
			r.core.RefillStream(0)
		}
		if r.injectErrors != nil {
			r.injectErrors()
		}
		r.core.Shutdown()
		dev.RefillCycles++

		// DRAM energy for this cycle: retention for every buffer over the
		// cycle plus one pass in and one pass out for the cycle's data.
		cycleTime := r.core.Now().Sub(lastCycleEnd)
		access := dev.MediaBits.Sub(lastMediaBits)
		if r.fixedCycleAccess.Positive() {
			access = r.fixedCycleAccess
		}
		dev.DRAMEnergy = dev.DRAMEnergy.
			Add(r.dram.BackgroundPower(r.core.TotalBuffer()).Times(cycleTime)).
			Add(r.dram.AccessEnergy(access.Scale(2)))
		lastCycleEnd = r.core.Now()
		lastMediaBits = dev.MediaBits
	}
	dev.SimulatedTime = r.core.Now()
	// Best-effort data passes through the buffer once in and once out.
	dev.DRAMEnergy = dev.DRAMEnergy.Add(r.dram.AccessEnergy(dev.BestEffortBits.Scale(2)))
	dev.RecordRun()
	return dev
}

// serveBestEffort serves every queued request that has arrived by now. The
// clock advances while each request is served, so the next one is asked for
// at the new time.
func (r *runner) serveBestEffort() {
	dev := r.core.DeviceStats()
	for req, ok := r.arrivals.Next(r.core.Now()); ok; req, ok = r.arrivals.Next(r.core.Now()) {
		r.core.Account(device.StateBestEffort, r.bestEffort.ServiceTime(req.Size), -1)
		dev.BestEffortBits = dev.BestEffortBits.Add(req.Size)
		dev.BestEffortRequests++
		if req.Write {
			// Route background writes through the wear accounting so
			// probe-lifetime projections count them consistently.
			if r.inflateBestEffortWrites {
				r.core.CreditStreamWrite(0, req.Size)
			} else {
				r.core.CreditBestEffortWrite(req.Size)
			}
		}
	}
}

// rewindRequests restarts the best-effort request sequence for the given
// process, the shared tail of build and restart. It draws only the first
// interarrival, so it costs the same whatever the duration or load. A
// process with no positive share is never consulted, as Config.Validate
// checks it only when its share is positive.
func (r *runner) rewindRequests(be workload.BestEffortProcess) (err error) {
	r.bestEffort, r.arrivals = be, workload.BestEffortArrivals{}
	if be.TargetFraction > 0 {
		r.arrivals, err = be.Arrivals(r.duration)
	}
	return err
}
