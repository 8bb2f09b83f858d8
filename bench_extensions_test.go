package memstream

// Benchmarks for the extensions this reproduction adds beyond the paper's
// evaluation: the shared-device (multi-stream) dimensioning, the disk
// baseline carried through the full energy model, and frame-accurate video
// trace simulation.

import "testing"

// BenchmarkSharedDeviceDimension dimensions the buffers of a
// playback + recording + audio mix sharing one MEMS device.
func BenchmarkSharedDeviceDimension(b *testing.B) {
	streams := []StreamSpec{
		{Name: "video playback", Rate: 1024 * Kbps, WriteFraction: 0},
		{Name: "camera recording", Rate: 512 * Kbps, WriteFraction: 1},
		{Name: "audio playback", Rate: 128 * Kbps, WriteFraction: 0},
	}
	goal := PaperGoalB()
	var dim SharedDimensioning
	for i := 0; i < b.N; i++ {
		system, err := NewSharedSystem(DefaultDevice(), streams)
		if err != nil {
			b.Fatal(err)
		}
		dim, err = system.Dimension(goal)
		if err != nil {
			b.Fatal(err)
		}
	}
	if dim.Feasible {
		b.ReportMetric(dim.Plan.TotalBuffer.KiBytes(), "KiB-total-buffer")
		b.ReportMetric(dim.Period.Seconds(), "s-super-cycle")
	}
	if b.N == 1 || testing.Verbose() {
		b.Logf("three-stream mix: %v super-cycle, %.0f KiB total buffer, dictated by %s",
			dim.Period, dim.Plan.TotalBuffer.KiBytes(), dim.Dominant.Description())
	}
}

// BenchmarkDiskEnergyComparison carries the disk baseline through the full
// energy model: buffer needed for a 50% saving on MEMS versus on the disk.
func BenchmarkDiskEnergyComparison(b *testing.B) {
	rates := []BitRate{128 * Kbps, 512 * Kbps, 1024 * Kbps, 4096 * Kbps}
	var rows []DiskEnergyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = DiskEnergyComparison(DefaultDevice(), DefaultDisk(), 0.50, rates)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	if last.MEMSFeasible && last.DiskFeasible {
		b.ReportMetric(last.DiskBuffer.DivideBy(last.MEMSBuffer), "x-disk-over-MEMS-buffer")
	}
	if b.N == 1 || testing.Verbose() {
		for _, r := range rows {
			b.Logf("%v: MEMS %.1f KiB (%.1f nJ/b) vs disk %.1f MB (%.0f nJ/b)",
				r.Rate, r.MEMSBuffer.KiBytes(), r.MEMSPerBit.NanojoulesPerBit(),
				r.DiskBuffer.Bytes()/1e6, r.DiskPerBit.NanojoulesPerBit())
		}
	}
}

// BenchmarkVideoTraceSimulation simulates one minute of frame-accurate
// MPEG-like playback through a dimensioned buffer.
func BenchmarkVideoTraceSimulation(b *testing.B) {
	cfg := SimConfig{
		Device:   DefaultDevice(),
		DRAM:     DefaultDRAM(),
		Buffer:   92 * KiB,
		Spec:     VideoSpec(1024*Kbps, 7),
		Duration: 60 * Second,
		Seed:     7,
	}
	var stats *SimStats
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err = Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.PerBitEnergy().NanojoulesPerBit(), "nJ/b")
	b.ReportMetric(float64(stats.Underruns), "underruns")
}

// BenchmarkMultiSim simulates one minute of a three-stream mix (CBR
// playback, VBR camera, CBR audio) sharing one device under round-robin
// scheduling — the multi-stream event engine's hot path.
func BenchmarkMultiSim(b *testing.B) {
	cfg := SimMultiConfig{
		Device: DefaultDevice(),
		DRAM:   DefaultDRAM(),
		Streams: []SimMultiStream{
			{Name: "playback", Spec: CBRSpec(1024 * Kbps), Buffer: 128 * KiB},
			{Name: "camera", Spec: VBRSpec(512*Kbps, 7), Buffer: 64 * KiB},
			{Name: "audio", Spec: CBRSpec(128 * Kbps), Buffer: 32 * KiB},
		},
		BestEffort: NewBestEffortProcess(0.05, DefaultDevice().MediaRate(), 7),
		Duration:   60 * Second,
		Seed:       7,
	}
	var stats *SimMultiStats
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err = SimulateMulti(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Device.PerBitEnergy().NanojoulesPerBit(), "nJ/b")
	b.ReportMetric(float64(stats.Device.RefillCycles), "wake-ups")
	b.ReportMetric(float64(stats.Device.Underruns), "underruns")
}

// BenchmarkSpringsDurabilityAblation compares the buffer the springs demand
// at the nickel (1e8) versus silicon (1e12) rating — the design sensitivity
// the paper's conclusion is about.
func BenchmarkSpringsDurabilityAblation(b *testing.B) {
	goal := PaperGoalB()
	var nickel, silicon Dimensioning
	for i := 0; i < b.N; i++ {
		mN, err := New(DefaultDevice(), 1024*Kbps)
		if err != nil {
			b.Fatal(err)
		}
		nickel, err = mN.Dimension(goal)
		if err != nil {
			b.Fatal(err)
		}
		mS, err := New(ImprovedDevice(), 1024*Kbps)
		if err != nil {
			b.Fatal(err)
		}
		silicon, err = mS.Dimension(goal)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nickel.Buffer.KiBytes(), "KiB-nickel-springs")
	b.ReportMetric(silicon.Buffer.KiBytes(), "KiB-silicon-springs")
	if b.N == 1 || testing.Verbose() {
		b.Logf("goal %v at 1024 kbps: nickel springs need %.0f KiB (%s-dominated), silicon %.0f KiB (%s-dominated)",
			goal, nickel.Buffer.KiBytes(), nickel.Dominant, silicon.Buffer.KiBytes(), silicon.Dominant)
	}
}
