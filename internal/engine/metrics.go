package engine

import (
	"math"
	"sync/atomic"
)

// Package-level run totals, mirrored into memsd's /metricsz by the service
// layer. The engine never touches them on the hot path: a run accumulates
// its Steps and simulated time in its own Stats, and Run folds them in with
// one recordRun call at run completion — so the per-step accounting stays
// allocation-free and atomic-free, and the totals stay consistent at any
// worker count.
var (
	totalRuns  atomic.Uint64
	totalSteps atomic.Uint64
	// totalSimSecondsBits accumulates simulated seconds as a float64 behind
	// a CAS loop (there is no atomic float in the standard library).
	totalSimSecondsBits atomic.Uint64
)

// RunTotals is a snapshot of the engine counters since process start.
type RunTotals struct {
	// Runs counts completed simulation runs (single- and multi-stream).
	Runs uint64
	// Steps counts accounting steps across all completed runs.
	Steps uint64
	// SimulatedSeconds is the total simulated time covered by those runs.
	SimulatedSeconds float64
}

// Totals returns the engine counters since process start.
func Totals() RunTotals {
	return RunTotals{
		Runs:             totalRuns.Load(),
		Steps:            totalSteps.Load(),
		SimulatedSeconds: math.Float64frombits(totalSimSecondsBits.Load()),
	}
}

// recordRun folds one completed run's statistics into the package totals.
// Run calls it exactly once per finished run, after SimulatedTime and Steps
// are final.
func (s *Stats) recordRun() {
	totalRuns.Add(1)
	totalSteps.Add(uint64(s.Steps))
	addFloat(&totalSimSecondsBits, s.SimulatedTime.Seconds())
}

// addFloat adds delta to a float64 stored as bits in an atomic.Uint64.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}
