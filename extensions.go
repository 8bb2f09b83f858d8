package memstream

// This file exposes the extensions this reproduction adds on top of the
// paper's single-stream study:
//
//   - a shared-device (multi-stream) formulation of the same design question,
//   - the disk baseline carried through the full energy model (not only the
//     break-even point of Section III-A.1),
//   - MPEG-like frame-accurate video traces for the simulator.

import (
	"context"
	"fmt"
	"io"

	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/engine"
	"memstream/internal/lifetime"
	"memstream/internal/multistream"
	"memstream/internal/sim"
	"memstream/internal/workload"
)

// Shared-device (multi-stream) extension.
type (
	// SharedSystem is a MEMS device shared by several concurrent streams.
	SharedSystem = multistream.System
	// StreamSpec describes one stream of a shared system.
	StreamSpec = multistream.StreamSpec
	// SharedPlan is the evaluation of a shared system at one super-cycle.
	SharedPlan = multistream.Plan
	// SharedDimensioning answers the shared-device design question.
	SharedDimensioning = multistream.Dimensioning
)

// NewSharedSystem builds a shared-device system with the Table I workload
// calendar and the default DRAM model.
func NewSharedSystem(dev Device, streams []StreamSpec) (*SharedSystem, error) {
	s, err := multistream.NewSystem(dev, device.DefaultDRAM(), lifetime.DefaultWorkload(), streams)
	return s, wrapErr(err)
}

// NewSharedSystemWithWorkload builds a shared-device system with an explicit
// workload and DRAM model.
func NewSharedSystemWithWorkload(dev Device, dram DRAM, wl Workload, streams []StreamSpec) (*SharedSystem, error) {
	s, err := multistream.NewSystem(dev, dram, wl, streams)
	return s, wrapErr(err)
}

// Multi-stream simulation: several concurrent streams scheduled on one
// shared device by the event-driven engine.
type (
	// SimMultiConfig describes one shared-device simulation run: the
	// concurrent streams (each with its own workload spec and buffer), the
	// scheduling policy and the shared backend.
	SimMultiConfig = sim.MultiConfig
	// SimMultiStream is one stream of a SimMultiConfig.
	SimMultiStream = sim.MultiStream
	// SimMultiStats is what a shared-device run observed: aggregate device
	// statistics plus one record per stream (and per-stream energy shares
	// through EnergyShare).
	SimMultiStats = sim.MultiStats
	// SimNamedStats is one stream's statistics within a SimMultiStats.
	SimNamedStats = sim.NamedStats
	// SchedulingPolicy selects the order in which a woken device services
	// the stream buffers.
	SchedulingPolicy = engine.Policy
)

// The shared-device scheduling policies.
const (
	// PolicyRoundRobin services every stream in declaration order per
	// wake-up — the paper's gated cycle model, and the default.
	PolicyRoundRobin = engine.PolicyRoundRobin
	// PolicyMostUrgent services the buffer closest to starving first (an
	// EDF-like variant).
	PolicyMostUrgent = engine.PolicyMostUrgent
	// PolicyPriority services higher SimMultiStream.Priority values first,
	// most urgent first within a class.
	PolicyPriority = engine.PolicyPriority
)

// ParseSchedulingPolicy canonicalizes a policy spelling: "round-robin" (or
// "rr"), "most-urgent" (or "edf"), "priority" (or "prio"), or empty for the
// round-robin default.
func ParseSchedulingPolicy(s string) (SchedulingPolicy, error) {
	p, err := engine.ParsePolicy(s)
	if err != nil {
		return "", fmt.Errorf("memstream: %w", err)
	}
	return p, nil
}

// SimulateMulti runs a shared-device simulation: every stream drains its own
// buffer continuously while the device wakes when any buffer falls to its
// wake level, repositions to each stream region in turn, refills it at the
// media rate and shuts down again.
func SimulateMulti(cfg SimMultiConfig) (*SimMultiStats, error) {
	stats, err := sim.RunMulti(cfg)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return stats, nil
}

// SimulateMultiBatch runs many independent shared-device simulations
// concurrently on one worker per CPU and returns the statistics in input
// order, with the same determinism guarantee and the same per-worker
// simulator reuse as SimulateBatch.
func SimulateMultiBatch(cfgs ...SimMultiConfig) ([]*SimMultiStats, error) {
	return SimulateMultiBatchContext(context.Background(), 0, cfgs)
}

// SimulateMultiBatchContext is SimulateMultiBatch with explicit cancellation
// and worker bound. workers <= 0 uses one worker per CPU; workers == 1 forces
// the sequential path. The first failing configuration aborts the batch.
func SimulateMultiBatchContext(ctx context.Context, workers int, cfgs []SimMultiConfig) ([]*SimMultiStats, error) {
	stats, err := sim.RunMultiBatch(ctx, workers, cfgs)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return stats, nil
}

// Disk baseline carried through the full energy model.
type (
	// DiskEnergyModel applies the refill-cycle energy analysis to the
	// 1.8-inch disk baseline.
	DiskEnergyModel = energy.DiskModel
)

// NewDiskEnergyModel builds a disk streaming-energy model at the given rate.
func NewDiskEnergyModel(d Disk, rate BitRate) (DiskEnergyModel, error) {
	m, err := energy.NewDiskModel(d, rate)
	return m, wrapErr(err)
}

// DefaultDiskSimConfig returns a ready-to-run simulation of the 1.8-inch
// disk baseline streaming at the given rate through the given buffer for
// five minutes, including the 5 % best-effort load. Note the buffer must
// cover the drain over the drive's seconds-long spin-up — megabytes rather
// than the MEMS device's kilobytes, which is the paper's break-even point
// made executable.
func DefaultDiskSimConfig(d Disk, rate BitRate, buffer Size) SimConfig {
	return DefaultSimConfigFor(DiskBackend(d), rate, buffer)
}

// SimulateDisk runs a discrete-event simulation of the disk + DRAM streaming
// architecture: cfg drives the given drive through the refill cycle instead
// of the MEMS device (any Backend already set is replaced; Device is
// ignored).
func SimulateDisk(d Disk, cfg SimConfig) (*SimStats, error) {
	cfg.Backend = DiskBackend(d)
	cfg.Device = device.MEMS{}
	stats, err := sim.RunConfig(cfg)
	if err != nil {
		return nil, fmt.Errorf("memstream: %w", err)
	}
	return stats, nil
}

// Stream workloads and frame traces.
type (
	// Frame is one encoded frame of a generated trace.
	Frame = workload.Frame
	// FrameClass is the coding class of a frame (I, P or B).
	FrameClass = workload.FrameClass
	// SimStreamSpec is the typed stream description SimConfig.Spec consumes:
	// one value selects the workload family (SpecCBR, SpecVBR, SpecVideo or
	// SpecTrace) and carries its parameters; the simulator derives the
	// demand pattern (with the video-trace horizon tied to the run duration)
	// and the write mix from it.
	SimStreamSpec = workload.StreamSpec
	// SimSpecKind names a workload family of a SimStreamSpec.
	SimSpecKind = workload.SpecKind
)

// The workload families a SimStreamSpec can select.
const (
	// SpecCBR is a constant-bit-rate stream.
	SpecCBR = workload.SpecCBR
	// SpecVBR is the segment-wise variable-bit-rate stream.
	SpecVBR = workload.SpecVBR
	// SpecVideo is the generated MPEG-like frame-accurate video trace.
	SpecVideo = workload.SpecVideo
	// SpecTrace replays a user-supplied frame trace.
	SpecTrace = workload.SpecTrace
)

// MaxTraceHorizon caps the generated video-trace length; longer runs wrap
// around explicitly.
const MaxTraceHorizon = workload.MaxTraceHorizon

// CBRSpec returns a constant-bit-rate stream spec with the Table I write mix.
func CBRSpec(rate BitRate) SimStreamSpec { return workload.CBRSpec(rate) }

// VBRSpec returns a variable-bit-rate stream spec averaging the given rate.
func VBRSpec(rate BitRate, seed uint64) SimStreamSpec { return workload.VBRSpec(rate, seed) }

// VideoSpec returns an MPEG-like video stream spec averaging the given rate
// (12-frame GOP at 25 fps, 5:3:1 weights, 20 % jitter).
func VideoSpec(rate BitRate, seed uint64) SimStreamSpec { return workload.VideoSpec(rate, seed) }

// TraceSpec returns a stream spec replaying the given frames (as produced
// by ParseFrameTrace) with the Table I write mix.
func TraceSpec(frames []Frame) SimStreamSpec { return workload.TraceSpec(frames) }

// ParseFrameTrace reads a frame trace in the one-frame-per-line text format
// ("<timestamp> <size> [class]"; timestamps accept the duration grammar,
// sizes the size grammar, bare numbers are seconds and bytes). The trace is
// normalized to start at time zero.
func ParseFrameTrace(r io.Reader) ([]Frame, error) {
	frames, err := workload.ParseFrames(r)
	return frames, wrapErr(err)
}

// WriteFrameTrace writes frames in the ParseFrameTrace text format, so a
// generated trace can be saved and replayed through a SpecTrace stream.
func WriteFrameTrace(w io.Writer, frames []Frame) error {
	return wrapErr(workload.FormatFrames(w, frames))
}

// Video frame classes.
const (
	// FrameI is an intra-coded frame.
	FrameI = workload.FrameI
	// FrameP is a predicted frame.
	FrameP = workload.FrameP
	// FrameB is a bidirectionally predicted frame.
	FrameB = workload.FrameB
)

// DiskEnergyRow is one row of the extended MEMS-versus-disk energy comparison.
type DiskEnergyRow struct {
	// Rate is the streaming bit rate.
	Rate BitRate
	// MEMSBuffer and DiskBuffer are the buffers needed for the target saving
	// on each device (zero when unreachable).
	MEMSBuffer Size
	DiskBuffer Size
	// MEMSPerBit and DiskPerBit are the per-bit energies at those buffers.
	MEMSPerBit EnergyPerBit
	DiskPerBit EnergyPerBit
	// MEMSFeasible and DiskFeasible report whether the saving target is
	// reachable at all.
	MEMSFeasible bool
	DiskFeasible bool
}

// DiskEnergyComparison dimensions the energy-only buffer of the MEMS device
// and the disk baseline for the same saving target across the given rates —
// the quantitative version of the paper's introduction argument.
func DiskEnergyComparison(dev Device, d Disk, saving float64, rates []BitRate) ([]DiskEnergyRow, error) {
	rows := make([]DiskEnergyRow, 0, len(rates))
	for _, rate := range rates {
		row := DiskEnergyRow{Rate: rate}

		model, err := New(dev, rate)
		if err != nil {
			return nil, wrapErr(err)
		}
		req, err := model.BufferForEnergySaving(saving)
		if err != nil {
			return nil, wrapErr(err)
		}
		if req.Feasible {
			row.MEMSFeasible = true
			row.MEMSBuffer = req.Buffer
			pt, err := model.At(req.Buffer)
			if err != nil {
				return nil, wrapErr(err)
			}
			row.MEMSPerBit = pt.EnergyPerBit
		}

		diskModel, err := NewDiskEnergyModel(d, rate)
		if err != nil {
			return nil, wrapErr(err)
		}
		diskBuf, err := diskModel.BufferForSaving(saving)
		switch {
		case err == nil:
			row.DiskFeasible = true
			row.DiskBuffer = diskBuf
			bd, err := diskModel.PerBit(diskBuf)
			if err != nil {
				return nil, wrapErr(err)
			}
			row.DiskPerBit = bd.Total()
		default:
			row.DiskFeasible = false
		}
		rows = append(rows, row)
	}
	return rows, nil
}
