package sim

import (
	"fmt"
	"math"
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func baseConfig(buffer units.Size, rate units.BitRate) Config {
	return Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   buffer,
		Spec:     workload.CBRSpec(rate),
		Duration: 5 * units.Minute,
		Seed:     1,
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(20*units.KiB, 1024*units.Kbps)
	if err := good.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero buffer", func(c *Config) { c.Buffer = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"infinite buffer", func(c *Config) { c.Buffer = units.Size(math.Inf(1)) }},
		{"infinite duration", func(c *Config) { c.Duration = units.Duration(math.Inf(1)) }},
		{"rate above media", func(c *Config) { c.Spec.Rate = 200 * units.Mbps }},
		{"broken device", func(c *Config) { c.Device.ActiveProbes = 0 }},
		{"broken dram", func(c *Config) { c.DRAM.DieCapacity = 0 }},
		{"broken stream", func(c *Config) { c.Spec.WriteFraction = 2 }},
		{"broken best effort", func(c *Config) {
			c.BestEffort = workload.BestEffortProcess{TargetFraction: 0.05}
		}},
		{"negative best-effort share", func(c *Config) {
			c.BestEffort = workload.NewBestEffortProcess(-0.2, c.MediaRate(), 1)
		}},
		{"NaN best-effort share", func(c *Config) {
			c.BestEffort = workload.NewBestEffortProcess(math.NaN(), c.MediaRate(), 1)
		}},
		{"negative BER", func(c *Config) { c.BitErrorRate = -1 }},
		{"NaN BER", func(c *Config) { c.BitErrorRate = math.NaN() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
			m.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("broken config accepted (%s)", m.name)
			}
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted broken config (%s)", m.name)
			}
		})
	}
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Underruns != 0 {
		t.Errorf("stream underran %d times with an adequate buffer", stats.Underruns)
	}
	if stats.RefillCycles == 0 {
		t.Fatal("no refill cycles simulated")
	}
	if relDiff(stats.SimulatedTime.Seconds(), cfg.Duration.Seconds()) > 0.02 {
		t.Errorf("simulated %v, want about %v", stats.SimulatedTime, cfg.Duration)
	}
	// Conservation: streamed bits equal the drain rate times the time, within
	// the granularity of one buffer.
	wantStreamed := cfg.Spec.Rate.Times(stats.SimulatedTime)
	if relDiff(stats.StreamedBits.Bits(), wantStreamed.Bits()) > 0.02 {
		t.Errorf("streamed %v, want about %v", stats.StreamedBits, wantStreamed)
	}
	// The media moved at least as many bits as the stream consumed (it also
	// refills what is still sitting in the buffer at the end).
	if stats.MediaBits.Bits() < stats.StreamedBits.Bits()*0.95 {
		t.Errorf("media bits %v below streamed bits %v", stats.MediaBits, stats.StreamedBits)
	}
	// Energy accounting: per-state energy equals state power times residency.
	for s := 0; s < device.NumStates; s++ {
		state := device.PowerState(s)
		want := cfg.Device.StatePower(state).Times(stats.StateTime[s])
		if relDiff(stats.StateEnergy[s].Joules(), want.Joules()) > 1e-9 && want.Joules() > 0 {
			t.Errorf("state %v energy %v, want %v", state, stats.StateEnergy[s], want)
		}
	}
	// Time accounting: state residencies sum to the simulated time.
	var total units.Duration
	for _, d := range stats.StateTime {
		total = total.Add(d)
	}
	if relDiff(total.Seconds(), stats.SimulatedTime.Seconds()) > 1e-6 {
		t.Errorf("state times sum to %v, want %v", total, stats.SimulatedTime)
	}
	// The device spends most of its time in standby at this buffer size.
	if stats.DutyCycle() > 0.15 {
		t.Errorf("duty cycle = %g, want well below 0.15", stats.DutyCycle())
	}
	if stats.MinBufferLevel <= 0 {
		t.Errorf("buffer hit empty (min level %v) without being counted as underrun", stats.MinBufferLevel)
	}
}

func TestSimulatorMatchesAnalyticEnergyModel(t *testing.T) {
	// The headline validation: across rates and buffer sizes (no best-effort
	// traffic, matching the bare model) the simulator reproduces Eq. 1's
	// exact relations. Its refill rate is Eq. 1's cycle rate, and its
	// per-bit energy is Eq. 1's times (rm − r)/rm, because Eq. 1 prices a
	// cycle per buffer bit while a cycle streams B·rm/(rm − r) bits. Both
	// hold to 1e-3 (measured at most 2.1e-4 and 4.0e-4).
	for _, tc := range []struct {
		rate   units.BitRate
		buffer units.Size
	}{
		{256 * units.Kbps, 10 * units.KiB},
		{1024 * units.Kbps, 20 * units.KiB},
		{1024 * units.Kbps, 45 * units.KiB},
		{4096 * units.Kbps, 90 * units.KiB},
	} {
		cfg := baseConfig(tc.buffer, tc.rate)
		cfg.Duration = 10 * units.Minute
		stats, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", tc.rate, tc.buffer, err)
		}
		model, err := energy.New(cfg.Device, cfg.DRAM, tc.rate)
		if err != nil {
			t.Fatal(err)
		}
		model.BestEffortFraction = 0
		bd, err := model.PerBit(tc.buffer)
		if err != nil {
			t.Fatal(err)
		}
		rm := cfg.MediaRate().BitsPerSecond()
		simPerBit := stats.PerBitEnergy().NanojoulesPerBit()
		analytic := bd.Total().NanojoulesPerBit() * (rm - tc.rate.BitsPerSecond()) / rm
		if d := relDiff(simPerBit, analytic); d > 1e-3 {
			t.Errorf("%v/%v: per-bit energy sim %.4f vs Eq. 1 × (rm − r)/rm %.4f nJ/b (rel %.1e)",
				tc.rate, tc.buffer, simPerBit, analytic, d)
		}
		cycle, err := model.Cycle(tc.buffer)
		if err != nil {
			t.Fatal(err)
		}
		simRefills := stats.RefillsPerSecond()
		analyticRefills := cycle.RefillsPerSecond
		if d := relDiff(simRefills, analyticRefills); d > 1e-3 {
			t.Errorf("%v/%v: refills/s sim %.4f vs Eq. 1 %.4f (rel %.1e)",
				tc.rate, tc.buffer, simRefills, analyticRefills, d)
		}
	}
}

func TestSimulatorMatchesAnalyticLifetimeModel(t *testing.T) {
	cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
	cfg.Duration = 10 * units.Minute
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := workload.DefaultCalendar()
	springs := stats.ProjectedSpringsLifetime(cfg.Device, cal)
	// Analytic: Dsp*B/(T*rs) = 1e8 * 163840 / (1.0512e7 * 1.024e6) years.
	analytic := 1e8 * 163840 / (1.0512e7 * 1.024e6)
	if relDiff(springs.Years(), analytic) > 0.08 {
		t.Errorf("projected springs lifetime %.2f years vs analytic %.2f", springs.Years(), analytic)
	}
	probes := stats.ProjectedProbesLifetime(cfg.Device, cal)
	// Analytic probes lifetime at this operating point is about 19.5 years.
	if probes.Years() < 17 || probes.Years() > 22 {
		t.Errorf("projected probes lifetime %.2f years, want about 19.5", probes.Years())
	}
}

func TestSmallBufferShortensStandby(t *testing.T) {
	small, err := RunConfig(baseConfig(5*units.KiB, 1024*units.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunConfig(baseConfig(45*units.KiB, 1024*units.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if small.RefillCycles <= large.RefillCycles {
		t.Errorf("smaller buffer should refill more often: %d vs %d",
			small.RefillCycles, large.RefillCycles)
	}
	if small.PerBitEnergy() <= large.PerBitEnergy() {
		t.Errorf("smaller buffer should cost more energy per bit: %v vs %v",
			small.PerBitEnergy(), large.PerBitEnergy())
	}
}

func TestBufferTooSmallForSeek(t *testing.T) {
	cfg := baseConfig(units.Size(1000), 4096*units.Kbps) // ~1000 bits < rs*tsk
	if _, err := RunConfig(cfg); err == nil {
		t.Error("a buffer smaller than the seek-time drain should fail")
	}
}

func TestBestEffortTrafficIsServed(t *testing.T) {
	cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.Device.MediaRate(), 7)
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BestEffortRequests == 0 || !stats.BestEffortBits.Positive() {
		t.Fatal("no best-effort traffic served")
	}
	if stats.StateTime[device.StateBestEffort] <= 0 {
		t.Error("no time accounted to best-effort service")
	}
	// Serving best-effort traffic costs extra energy per streamed bit.
	clean, err := RunConfig(baseConfig(20*units.KiB, 1024*units.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if stats.PerBitEnergy() <= clean.PerBitEnergy() {
		t.Errorf("best-effort traffic should raise the per-bit energy: %v vs %v",
			stats.PerBitEnergy(), clean.PerBitEnergy())
	}
	if stats.Underruns != 0 {
		t.Errorf("best-effort traffic caused %d underruns at a healthy buffer", stats.Underruns)
	}
}

func TestVBRStreamSimulation(t *testing.T) {
	cfg := baseConfig(45*units.KiB, 1024*units.Kbps)
	cfg.Spec = workload.VBRSpec(1024*units.Kbps, 13)
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Underruns != 0 {
		t.Errorf("VBR stream underran %d times with a 45 KiB buffer", stats.Underruns)
	}
	// Streamed volume stays near nominal (the VBR pattern averages out).
	want := cfg.Spec.Rate.Times(stats.SimulatedTime)
	if relDiff(stats.StreamedBits.Bits(), want.Bits()) > 0.15 {
		t.Errorf("VBR streamed %v, want within 15%% of %v", stats.StreamedBits, want)
	}
}

// TestECCErrorInjection checks the error model at a 1e-3 raw bit-error
// rate. It samples each refill cycle once: a second Run returns the same
// counters, and Reset replays them.
func TestECCErrorInjection(t *testing.T) {
	cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
	cfg.BitErrorRate = 1e-3
	cfg.Duration = 2 * units.Minute
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	first := *stats
	again, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again.ECCCorrected != first.ECCCorrected || again.ECCUncorrectable != first.ECCUncorrectable {
		t.Errorf("a second Run moved the ECC counters from %d/%d to %d/%d",
			first.ECCCorrected, first.ECCUncorrectable, again.ECCCorrected, again.ECCUncorrectable)
	}
	if err := s.Reset(cfg.Seed); err != nil {
		t.Fatal(err)
	}
	replay, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *replay != first {
		t.Errorf("Reset and Run did not replay the run:\n got %+v\nwant %+v", *replay, first)
	}
	if stats.ECCCorrected == 0 {
		t.Error("no ECC corrections observed at a 1e-3 raw bit-error rate")
	}
	// At this BER double errors per 72-bit word are rare but not impossible;
	// what matters is that corrections dominate.
	if stats.ECCUncorrectable > stats.ECCCorrected/10 {
		t.Errorf("uncorrectable (%d) not rare next to corrected (%d)",
			stats.ECCUncorrectable, stats.ECCCorrected)
	}
	clean, err := RunConfig(baseConfig(20*units.KiB, 1024*units.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if clean.ECCCorrected != 0 || clean.ECCUncorrectable != 0 {
		t.Error("error-free run reported ECC activity")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.Device.MediaRate(), 21)
	a, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RefillCycles != b.RefillCycles || a.StreamedBits != b.StreamedBits ||
		a.BestEffortRequests != b.BestEffortRequests ||
		a.TotalEnergy() != b.TotalEnergy() {
		t.Error("identical configurations produced different results")
	}
}

func TestDRAMEnergyIsSmallInSimulation(t *testing.T) {
	cfg := baseConfig(20*units.KiB, 1024*units.Kbps)
	stats, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if share := stats.DRAMEnergy.Joules() / stats.TotalEnergy().Joules(); share > 0.05 {
		t.Errorf("DRAM energy share = %.1f%%, the paper says it is negligible", 100*share)
	}
}

func TestStatsZeroTimeEdgeCases(t *testing.T) {
	var s Stats
	if s.RefillsPerSecond() != 0 || s.DutyCycle() != 0 {
		t.Error("zero-time stats should report zero rates")
	}
	if !math.IsInf(s.ProjectedSpringsLifetime(device.DefaultMEMS(), workload.DefaultCalendar()).Seconds(), 1) {
		t.Error("no refills should mean unbounded springs lifetime")
	}
	if got := s.ProjectedProbesLifetime(device.DefaultMEMS(), workload.DefaultCalendar()); got != 0 {
		t.Errorf("zero-time probes projection = %v, want 0", got)
	}
}

// TestRefillEndsAtHighRates is the regression sweep for the refill livelock:
// 30-second CBR runs from 30 to 60 Mbps in 0.5 Mbps steps, at three buffer
// sizes. Rates in (rm/3, rm/2] ≈ (34.13, 51.2] Mbps of the 102.4 Mbps media
// rate used to leave a refill stepping by sub-ulp amounts that moved neither
// the buffer level nor the clock, so the run never returned. Every run must
// now finish well inside the wall-clock bound (a healthy run takes about a
// millisecond).
func TestRefillEndsAtHighRates(t *testing.T) {
	const bound = 5 * time.Second
	for _, buffer := range []units.Size{16 * units.KiB, 64 * units.KiB, units.MiB} {
		for tenths := 300; tenths <= 600; tenths += 5 {
			rate := units.Mbps.Scale(float64(tenths) / 10)
			t.Run(fmt.Sprintf("%v/%v", buffer, rate), func(t *testing.T) {
				cfg := baseConfig(buffer, rate)
				cfg.Duration = 30 * units.Second
				done := make(chan error, 1)
				go func() {
					_, err := RunConfig(cfg)
					done <- err
				}()
				select {
				case <-done:
					// Undersized buffers are rejected at run time; either
					// outcome is an answer.
				case <-time.After(bound):
					t.Fatalf("run did not return within %v", bound)
				}
			})
		}
	}
}
