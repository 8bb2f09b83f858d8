package sim

import (
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// TestDiskBackendSimulation smoke-tests the pluggable backend: the 1.8-inch
// baseline must stream without underruns through a megabyte-scale buffer and
// charge its (much larger) mechanical overheads per cycle.
func TestDiskBackendSimulation(t *testing.T) {
	disk := device.Default18InchDisk()
	backend := engine.NewDisk(disk)
	cfg := Config{
		Backend:  backend,
		DRAM:     device.DefaultDRAM(),
		Buffer:   8 * units.MB,
		Spec:     workload.CBRSpec(1024 * units.Kbps),
		Duration: 10 * units.Minute,
		Seed:     1,
	}
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Underruns != 0 {
		t.Errorf("disk run underran %d times through an 8 MB buffer", stats.Underruns)
	}
	if stats.RefillCycles == 0 {
		t.Fatal("disk run completed no refill cycles")
	}
	// Each cycle's positioning interval must carry the spin-up + seek energy.
	posTime := backend.PositioningTime().Scale(float64(stats.RefillCycles))
	if got := stats.StateTime[device.StateSeek]; math.Abs(got.Seconds()-posTime.Seconds()) > 1e-6 {
		t.Errorf("positioning time %v, want %v over %d cycles", got, posTime, stats.RefillCycles)
	}
	wantPosEnergy := disk.SpinUpPower.Times(disk.SpinUpTime).
		Add(disk.SeekPower.Times(disk.SeekTime)).
		Scale(float64(stats.RefillCycles))
	if got := stats.StateEnergy[device.StateSeek]; math.Abs(got.Joules()-wantPosEnergy.Joules())/wantPosEnergy.Joules() > 1e-9 {
		t.Errorf("positioning energy %v, want %v", got, wantPosEnergy)
	}
}

// TestDiskBackendRejectsUndersizedBuffer locks in the clear failure mode: a
// buffer that cannot cover the spin-up drain must be rejected, not underrun.
func TestDiskBackendRejectsUndersizedBuffer(t *testing.T) {
	cfg := Config{
		Backend:  engine.NewDisk(device.Default18InchDisk()),
		DRAM:     device.DefaultDRAM(),
		Buffer:   64 * units.KiB, // < rate * (spin-up + seek)
		Spec:     workload.CBRSpec(1024 * units.Kbps),
		Duration: units.Minute,
		Seed:     1,
	}
	if _, err := RunConfig(cfg); err == nil {
		t.Error("a buffer below the spin-up drain should fail")
	}
}

// BenchmarkSimVideoEventDriven times one simulated minute of a frame-accurate
// video trace on the event-driven engine.
func BenchmarkSimVideoEventDriven(b *testing.B) {
	cfg := specConfig(workload.VideoSpec(1024*units.Kbps, 3), 64*units.KiB, units.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfig(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimVBREventDriven times the same minute of two-second VBR
// segments, which the engine steps per segment.
func BenchmarkSimVBREventDriven(b *testing.B) {
	cfg := specConfig(workload.VBRSpec(1024*units.Kbps, 13), 64*units.KiB, units.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfig(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBackendValidation locks in that the backend path validates the device
// like the MEMS path always did: a physically inconsistent drive must be
// rejected, not simulated into negative energies.
func TestBackendValidation(t *testing.T) {
	broken := device.Default18InchDisk()
	broken.IdlePower = broken.StandbyPower // idle must exceed standby
	cfg := Config{
		Backend:  engine.NewDisk(broken),
		DRAM:     device.DefaultDRAM(),
		Buffer:   8 * units.MB,
		Spec:     workload.CBRSpec(1024 * units.Kbps),
		Duration: units.Minute,
		Seed:     1,
	}
	if _, err := RunConfig(cfg); err == nil {
		t.Error("invalid disk backend accepted")
	}
}
