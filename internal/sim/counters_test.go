package sim

import (
	"reflect"
	"testing"

	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// TestRunTotalsAdvanceAtCompletion checks that a completed run folds its
// run, step and simulated-time contributions into the process totals
// exactly once, and that running a finished simulator again without a reset
// returns the same record and records nothing: a repeated Run must not
// charge the run's DRAM epilogue or count it twice. The counters are global,
// so the assertions are on deltas.
func TestRunTotalsAdvanceAtCompletion(t *testing.T) {
	cfg := baseConfig(64*units.KiB, 1024*units.Kbps)
	cfg.Duration = units.Minute
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi := twoStreamConfig()
	multi.BestEffort = workload.NewBestEffortProcess(0.05, multi.MediaRate(), 1)
	m, err := NewMulti(multi)
	if err != nil {
		t.Fatal(err)
	}

	engBefore := engine.Totals()
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := *stats
	multiFirst, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first.Steps <= 0 || multiFirst.Device.Steps <= 0 {
		t.Fatalf("runs recorded %d and %d accounting steps; want > 0", first.Steps, multiFirst.Device.Steps)
	}
	engAfter := engine.Totals()

	again, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *again != first {
		t.Errorf("second Simulator.Run changed the record:\n got %+v\nwant %+v", *again, first)
	}
	multiAgain, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(multiAgain, multiFirst) {
		t.Errorf("second MultiSimulator.Run changed the record:\n got %+v\nwant %+v", multiAgain.Device, multiFirst.Device)
	}
	if engine.Totals() != engAfter {
		t.Errorf("second runs moved the totals from %+v to %+v", engAfter, engine.Totals())
	}

	if got := engAfter.Runs - engBefore.Runs; got != 2 {
		t.Errorf("engine runs delta = %d; want 2", got)
	}
	if got, want := engAfter.Steps-engBefore.Steps, uint64(first.Steps+multiFirst.Device.Steps); got != want {
		t.Errorf("engine steps delta = %d; want %d", got, want)
	}
	simSeconds := engAfter.SimulatedSeconds - engBefore.SimulatedSeconds
	if want := first.SimulatedTime.Seconds() + multiFirst.Device.SimulatedTime.Seconds(); relDiff(simSeconds, want) > 1e-9 {
		t.Errorf("simulated seconds delta = %v; want %v", simSeconds, want)
	}
}
