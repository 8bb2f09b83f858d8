package sim

import (
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// conservationTol bounds the relative error of the conservation properties;
// measured runs hold them to about 1e-14.
const conservationTol = 1e-9

// assertConserved checks the two device-level conservation properties of a
// finished run: the per-state residencies sum to the simulated time, and the
// device energy is each state's power times its residency.
func assertConserved(t *testing.T, b engine.Backend, st *Stats) {
	t.Helper()
	var total units.Duration
	var energy units.Energy
	for s := 0; s < device.NumStates; s++ {
		total = total.Add(st.StateTime[s])
		energy = energy.Add(b.StatePower(device.PowerState(s)).Times(st.StateTime[s]))
	}
	if d := relDiff(total.Seconds(), st.SimulatedTime.Seconds()); d > conservationTol {
		t.Errorf("state times sum to %v, simulated %v (rel %.1e)", total, st.SimulatedTime, d)
	}
	if d := relDiff(energy.Joules(), st.DeviceEnergy().Joules()); d > conservationTol {
		t.Errorf("Σ power × state time = %v, device energy %v (rel %.1e)", energy, st.DeviceEnergy(), d)
	}
}

// TestConservationProperties checks time, energy and data conservation over
// every workload kind on both backends, each with 5 % best-effort traffic,
// and over the mixed three-stream run under every scheduling policy. For a
// single stream the data moved from the media, less the data streamed out,
// is exactly the buffer's fill change over the run (it starts full).
func TestConservationProperties(t *testing.T) {
	rate := 1024 * units.Kbps
	frames, err := workload.VideoSpec(rate, 5).TraceFrames(20 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]workload.StreamSpec{
		"cbr":   workload.CBRSpec(rate),
		"vbr":   workload.VBRSpec(rate, 5),
		"video": workload.VideoSpec(rate, 5),
		"trace": workload.TraceSpec(frames),
	}
	backends := []struct {
		name     string
		backend  engine.Backend
		buffer   units.Size
		duration units.Duration
	}{
		{"mems", engine.NewMEMS(device.DefaultMEMS()), 128 * units.KB, 2 * units.Minute},
		{"disk", engine.NewDisk(device.Default18InchDisk()), 8 * units.MB, 10 * units.Minute},
	}
	for _, be := range backends {
		for kind, spec := range specs {
			t.Run(be.name+"/"+kind, func(t *testing.T) {
				cfg := Config{
					Device:   device.DefaultMEMS(),
					Backend:  be.backend,
					DRAM:     device.DefaultDRAM(),
					Buffer:   be.buffer,
					Spec:     spec,
					Duration: be.duration,
					Seed:     5,
				}
				cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 5)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if st.RefillCycles == 0 || st.BestEffortRequests == 0 {
					t.Fatalf("degenerate run: %d refill cycles, %d best-effort requests", st.RefillCycles, st.BestEffortRequests)
				}
				assertConserved(t, be.backend, st)
				moved := st.MediaBits.Sub(st.StreamedBits)
				filled := s.core.Level(0).Sub(cfg.Buffer)
				scale := math.Max(st.MediaBits.Bits(), cfg.Buffer.Bits())
				if d := math.Abs(moved.Bits()-filled.Bits()) / scale; d > conservationTol {
					t.Errorf("media − streamed = %v, final level − buffer = %v (rel %.1e)", moved, filled, d)
				}
			})
		}
	}
	for _, policy := range []engine.Policy{engine.PolicyRoundRobin, engine.PolicyMostUrgent, engine.PolicyPriority} {
		t.Run("multi/"+string(policy), func(t *testing.T) {
			cfg := policyParityConfig(policy)
			stats, err := RunMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertConserved(t, cfg.backend(), &stats.Device)
		})
	}
}
