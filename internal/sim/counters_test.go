package sim

import (
	"testing"

	"memstream/internal/engine"
	"memstream/internal/units"
)

// TestRunTotalsAdvanceAtCompletion checks that a completed run folds its
// run, step and simulated-time contributions into the process totals
// exactly once. The counters are global, so the assertions are on deltas.
func TestRunTotalsAdvanceAtCompletion(t *testing.T) {
	engBefore := engine.Totals()

	stats, err := RunConfig(baseConfig(64*units.KiB, 1024*units.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps <= 0 {
		t.Fatalf("run recorded %d accounting steps; want > 0", stats.Steps)
	}

	engAfter := engine.Totals()
	if got := engAfter.Runs - engBefore.Runs; got != 1 {
		t.Errorf("engine runs delta = %d; want 1", got)
	}
	if got := engAfter.Steps - engBefore.Steps; got != uint64(stats.Steps) {
		t.Errorf("engine steps delta = %d; want %d", got, stats.Steps)
	}
	simSeconds := engAfter.SimulatedSeconds - engBefore.SimulatedSeconds
	if want := stats.SimulatedTime.Seconds(); relDiff(simSeconds, want) > 1e-9 {
		t.Errorf("simulated seconds delta = %v; want %v", simSeconds, want)
	}
}
