package sim

// The one cycle loop behind Simulator and MultiSimulator. Both drive the
// unified scheduling core (internal/engine.MultiCore) through the same
// wake/service/shutdown super-cycle; the few genuine behavioural differences
// of the single-stream model — the post-best-effort top-off refill, the ECC
// error model, background writes wearing the stream's own formatted region,
// and the full-buffer DRAM access charge per cycle — are expressed as runner
// knobs instead of a second loop.

import (
	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// runner drives the unified scheduling core through the refill-cycle state
// machine: standby until a wake level trips, service every stream in policy
// order, serve the best-effort backlog, shut down, and charge the cycle's
// DRAM energy. Both simulators embed one and differ only in its knobs.
type runner struct {
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

// run executes the cycle loop to the configured duration and finalizes the
// device record's SimulatedTime and best-effort DRAM energy. It allocates
// nothing: every per-cycle quantity lives in the core or in the runner.
func (r *runner) run() {
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
// process, the shared tail of both simulators' build and reset paths. It
// draws only the first interarrival, so it costs the same whatever the
// duration or load. A process with no positive share is never consulted, as
// Config.Validate checks it only when its share is positive.
func (r *runner) rewindRequests(be workload.BestEffortProcess) (err error) {
	r.bestEffort, r.arrivals = be, workload.BestEffortArrivals{}
	if be.TargetFraction > 0 {
		r.arrivals, err = be.Arrivals(r.duration)
	}
	return err
}
