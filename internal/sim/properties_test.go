package sim

import (
	"fmt"
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// conservationTol bounds the relative error of the conservation properties;
// measured runs hold them to about 1e-14.
const conservationTol = 1e-9

// assertConserved checks the three device-level conservation properties of
// a finished run: the per-state residencies sum to the simulated time, the
// device energy is each state's power times its residency, and the media
// bits are the media rate times the read/write residency, since every
// refill step moves media-rate bits.
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
	media := b.MediaRate().Times(st.StateTime[device.StateReadWrite])
	if d := relDiff(st.MediaBits.Bits(), media.Bits()); d > conservationTol {
		t.Errorf("media bits %v, media rate × read/write time %v (rel %.1e)", st.MediaBits, media, d)
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
				filled := s.multi.core.Level(0).Sub(cfg.Buffer)
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
			assertConserved(t, backendOf(cfg.Backend, cfg.Device), &stats.Device)
		})
	}
}

// TestDiskBreakEvenMatchesAnalytical checks the disk backend against the
// closed-form break-even buffer of Section III-A.1: bisecting the buffer at
// which the simulated spin-down drive starts saving energy over an always-on
// drive lands within 2 % of energy.BreakEvenBuffer (the facade's
// DiskBreakEvenBuffer) at 256, 1024 and 4096 kbps.
func TestDiskBreakEvenMatchesAnalytical(t *testing.T) {
	disk := device.Default18InchDisk()
	for _, rate := range []units.BitRate{256 * units.Kbps, 1024 * units.Kbps, 4096 * units.Kbps} {
		analytic, err := energy.BreakEvenBuffer(energy.DiskBreakEvenAdapter{Disk: disk}, rate)
		if err != nil {
			t.Fatal(err)
		}
		simulated := simulatedDiskBreakEven(t, disk, rate, analytic)
		if d := relDiff(simulated.Bits(), analytic.Bits()); d > 0.02 {
			t.Errorf("%v: simulated break-even %v, analytical %v (rel %.3f)", rate, simulated, analytic, d)
		}
	}
}

// simulatedDiskSaving measures, by simulation, the device-only energy saving
// of the spin-down architecture over an always-on reference streaming the
// same data: the reference transfers for the same media-active time and
// idles for the rest of the run.
func simulatedDiskSaving(t *testing.T, disk device.Disk, rate units.BitRate, buffer units.Size) float64 {
	t.Helper()
	// A clean streaming cycle, long enough to average out the truncated
	// final cycle: ~40 spin-down periods of roughly buffer/rate each.
	st, err := RunConfig(Config{
		Backend:  engine.NewDisk(disk),
		DRAM:     device.DefaultDRAM(),
		Buffer:   buffer,
		Spec:     workload.CBRSpec(rate),
		Duration: rate.TimeFor(buffer).Scale(40),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	active := st.StateTime[device.StateReadWrite].Add(st.StateTime[device.StateBestEffort])
	alwaysOn := disk.ReadWritePower.Times(active).
		Add(disk.IdlePower.Times(st.SimulatedTime.Sub(active)))
	return 1 - st.DeviceEnergy().Joules()/alwaysOn.Joules()
}

// simulatedDiskBreakEven bisects the buffer at which the simulated saving
// crosses zero, starting from a bracket around the analytical prediction.
func simulatedDiskBreakEven(t *testing.T, disk device.Disk, rate units.BitRate, analytic units.Size) units.Size {
	t.Helper()
	lo, hi := analytic.Scale(0.3), analytic.Scale(3)
	if sLo, sHi := simulatedDiskSaving(t, disk, rate, lo), simulatedDiskSaving(t, disk, rate, hi); sLo >= 0 || sHi <= 0 {
		t.Fatalf("%v: simulated saving does not bracket zero in [0.3, 3] x %v (%.3f, %.3f)", rate, analytic, sLo, sHi)
	}
	for i := 0; i < 12; i++ {
		mid := lo.Add(hi.Sub(lo).Scale(0.5))
		if simulatedDiskSaving(t, disk, rate, mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo.Add(hi.Sub(lo).Scale(0.5))
}

// framePlayback returns the bits a frame trace plays over [0, end), replayed
// every horizon: whole passes, the whole frames of the last pass, then the
// elapsed fraction of the frame playing at end.
func framePlayback(frames []workload.Frame, horizon, end units.Duration) float64 {
	var pass float64
	for _, f := range frames {
		pass += f.Size.Bits()
	}
	k := math.Floor(end.Seconds() / horizon.Seconds())
	bits := k * pass
	w := end.Seconds() - k*horizon.Seconds()
	for i, f := range frames {
		start, stop := f.Timestamp.Seconds(), horizon.Seconds()
		if i+1 < len(frames) {
			stop = frames[i+1].Timestamp.Seconds()
		}
		if w >= stop {
			bits += f.Size.Bits()
			continue
		}
		if w > start {
			bits += f.Size.Bits() * (w - start) / (stop - start)
		}
		break
	}
	return bits
}

// TestFrameAccurateRunsStreamTheirFrames checks that the engine integrates
// frame-accurate demand exactly, also while the device serves best-effort
// traffic: a video or trace run without underruns streams the bits its
// frames play over the simulated time, to a relative 1e-12. The runs are an
// hour of 1024 kbps video at three seeds, five minutes replaying a 60 s
// trace (five passes and the overrun of the last cycle), and ten minutes of
// three streams sharing the device (1024 kbps video, 768 kbps VBR and
// 512 kbps CBR), whose video stream must stream its own frames; each runs
// without best effort and at 5 % and 20 %.
func TestFrameAccurateRunsStreamTheirFrames(t *testing.T) {
	rate := 1024 * units.Kbps
	type run struct {
		cfg     Config
		frames  []workload.Frame
		horizon units.Duration
	}
	runs := map[string]run{}
	for seed := uint64(1); seed <= 3; seed++ {
		spec := workload.VideoSpec(rate, seed)
		frames, err := spec.TraceFrames(units.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cfg := specConfig(spec, 128*units.KiB, units.Hour)
		horizon := units.Second.Scale(float64(len(frames)) / spec.FrameRate)
		runs[fmt.Sprintf("video/seed-%d", seed)] = run{cfg, frames, horizon}
	}
	frames, err := workload.VideoSpec(rate, 3).TraceFrames(units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	n := len(frames)
	last := frames[n-1].Timestamp
	horizon := last.Add(last.Sub(frames[n-2].Timestamp))
	runs["trace/60s-for-5min"] = run{specConfig(workload.TraceSpec(frames), 64*units.KiB, 5*units.Minute), frames, horizon}

	for name, r := range runs {
		for _, be := range []float64{0, 0.05, 0.2} {
			cfg := r.cfg
			if be > 0 {
				cfg.BestEffort = workload.NewBestEffortProcess(be, cfg.Device.MediaRate(), cfg.Seed)
			}
			st, err := RunConfig(cfg)
			if err != nil {
				t.Fatalf("%s at %g best effort: %v", name, be, err)
			}
			if st.Underruns != 0 {
				t.Fatalf("%s at %g best effort: %d underruns; the property needs a run that never starves",
					name, be, st.Underruns)
			}
			if be > 0 && st.BestEffortRequests == 0 {
				t.Fatalf("%s at %g best effort: no request was served", name, be)
			}
			want := framePlayback(r.frames, r.horizon, st.SimulatedTime)
			if d := relDiff(st.StreamedBits.Bits(), want); d > 1e-12 {
				t.Errorf("%s at %g best effort: streamed %.17g bits over %v, the frames play %.17g (rel %.2e)",
					name, be, st.StreamedBits.Bits(), st.SimulatedTime, want, d)
			}
		}
	}

	video := workload.VideoSpec(rate, 1)
	frames, err = video.TraceFrames(10 * units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	horizon = units.Second.Scale(float64(len(frames)) / video.FrameRate)
	for _, be := range []float64{0, 0.05, 0.2} {
		cfg := MultiConfig{Device: device.DefaultMEMS(), DRAM: device.DefaultDRAM(), Duration: 10 * units.Minute, Seed: 1,
			Streams: []MultiStream{
				{Name: "video", Spec: video, Buffer: 128 * units.KiB},
				{Name: "vbr", Spec: workload.VBRSpec(768*units.Kbps, 1), Buffer: 128 * units.KiB},
				{Name: "cbr", Spec: workload.CBRSpec(512 * units.Kbps), Buffer: 128 * units.KiB},
			}}
		if be > 0 {
			cfg.BestEffort = workload.NewBestEffortProcess(be, cfg.MediaRate(), 1)
		}
		ms, err := RunMulti(cfg)
		if err != nil {
			t.Fatalf("three streams at %g best effort: %v", be, err)
		}
		st := ms.Streams[0]
		if ms.Device.Underruns != 0 || (be > 0 && ms.Device.BestEffortRequests == 0) {
			t.Fatalf("three streams at %g best effort: %d underruns, %d best-effort requests",
				be, ms.Device.Underruns, ms.Device.BestEffortRequests)
		}
		want := framePlayback(frames, horizon, st.SimulatedTime)
		if d := relDiff(st.StreamedBits.Bits(), want); d > 1e-12 {
			t.Errorf("three streams at %g best effort: the video stream streamed %.17g bits over %v, its frames play %.17g (rel %.2e)",
				be, st.StreamedBits.Bits(), st.SimulatedTime, want, d)
		}
	}
}

// TestStarvingRunsKeepTheirRebuffering pins what a player sees of two runs
// that starve while the device serves 20 % best effort: ten minutes of
// 1024 kbps video through a 2 KiB buffer, and three streams (1024 kbps video,
// 768 kbps VBR, 512 kbps CBR) through 4 KiB buffers each. The rebuffer
// episodes and the served requests are pinned exactly and the stalled time
// to a relative tolerance. Underruns count dry accounting steps, so how the
// engine groups its steps may lower them but never raise them; the ceilings
// are the counts measured since only a refill stops at a segment end, which
// in the single-stream row is one dry step per episode. Both rows
// were re-recorded when Rng.Exp moved from inversion to the ziggurat, which
// changed the best-effort draw stream; they moved within the spread the old
// stream showed over best-effort seeds 1–10.
func TestStarvingRunsKeepTheirRebuffering(t *testing.T) {
	dev := device.DefaultMEMS()
	be := workload.NewBestEffortProcess(0.2, dev.MediaRate(), 1)
	single := specConfig(workload.VideoSpec(1024*units.Kbps, 1), 2*units.KiB, 10*units.Minute)
	single.BestEffort = be
	multi := MultiConfig{Device: dev, DRAM: device.DefaultDRAM(), BestEffort: be, Duration: 10 * units.Minute, Seed: 1,
		Streams: []MultiStream{
			{Name: "video", Spec: workload.VideoSpec(1024*units.Kbps, 1), Buffer: 4 * units.KiB},
			{Name: "vbr", Spec: workload.VBRSpec(768*units.Kbps, 1), Buffer: 4 * units.KiB},
			{Name: "cbr", Spec: workload.CBRSpec(512 * units.Kbps), Buffer: 4 * units.KiB},
		}}
	singleStats, err := RunConfig(single)
	if err != nil {
		t.Fatal(err)
	}
	multiStats, err := RunMulti(multi)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                 string
		st                   *Stats
		episodes, requests   int
		maxUnderruns         int
		rebufferSeconds, tol float64
	}{
		{"single 2 KiB", singleStats, 968, 51860, 968, 3.0316130653987576, 1e-9},
		{"three streams 4 KiB", &multiStats.Device, 859, 51862, 1941, 2.5505788930958255, 1e-6},
	} {
		if c.st.RebufferEpisodes != c.episodes || c.st.BestEffortRequests != c.requests {
			t.Errorf("%s: %d rebuffer episodes and %d best-effort requests, pinned %d and %d",
				c.name, c.st.RebufferEpisodes, c.st.BestEffortRequests, c.episodes, c.requests)
		}
		if d := relDiff(c.st.RebufferTime.Seconds(), c.rebufferSeconds); d > c.tol {
			t.Errorf("%s: stalled %.13g s, pinned %.13g s (rel %.2e)", c.name, c.st.RebufferTime.Seconds(), c.rebufferSeconds, d)
		}
		if c.st.Underruns > c.maxUnderruns {
			t.Errorf("%s: %d underruns, more than the pinned %d", c.name, c.st.Underruns, c.maxUnderruns)
		}
	}
}

// TestCBRRunsRepeatOneCycle checks the engine against the refill cycle of
// Fig. 1b in closed form, over 400 generated one-stream CBR runs (32 kbps to
// 8 Mbps, 2 to 514 KiB, 1 s to 1 h, no best effort). With stream rate r,
// media rate rm, seek time tsk, shutdown time tsd and buffer B, the device
// wakes at W = 1.05·r·tsk, first after t1 = (B − W)/r; a refill takes
// R = (B − W + r·tsk)/(rm − r), a steady standby S = (B − r·tsd − W)/r, and
// the run repeats the period T = tsk + R + tsd + S. The N cycles that start
// before the end take four steps each, plus a closing standby when the last
// shutdown ends before the end. Refill cycles and steps must match exactly,
// every time, energy and volume to 1e-10. Configs whose standby is not
// positive (the device wakes as it shuts down) are not generated, and ends
// within 1e-9 of a cycle boundary are skipped.
func TestCBRRunsRepeatOneCycle(t *testing.T) {
	dev, dram := device.DefaultMEMS(), device.DefaultDRAM()
	backend := engine.NewMEMS(dev)
	rm, tsk, tsd := dev.MediaRate().BitsPerSecond(), dev.SeekTime.Seconds(), dev.ShutdownTime.Seconds()
	rng := workload.NewRng(1)
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for checked := 0; checked < 400; {
		rate, buffer, end := units.Kbps.Scale(logUniform(32, 8000)), units.KiB.Scale(logUniform(2, 514)), logUniform(1, 3600)
		r, b := rate.BitsPerSecond(), buffer.Bits()
		wake := 1.05 * r * tsk
		refill := (b - wake + r*tsk) / (rm - r)
		standby := (b - r*tsd - wake) / r
		active := tsk + refill + tsd
		period := active + standby
		// n cycles start before the end; phase is the end's offset from the
		// last wake-up (negative when the first standby outlasts the run).
		n, phase := 0, end-(b-wake)/r
		if phase > 0 {
			k := math.Floor(phase / period)
			n, phase = int(k)+1, phase-k*period
		}
		eps := 1e-9 * end
		if standby <= 0 || math.Abs(phase) < eps || math.Abs(phase-active) < eps || period-phase < eps {
			continue
		}
		checked++
		// The last shutdown ends at lastEnd (time zero before any cycle); a
		// closing standby runs from there to the end.
		lastEnd := 0.0
		if n > 0 {
			lastEnd = end - phase + active
		}
		steps, simulated := 4*n, lastEnd
		if lastEnd < end {
			steps, simulated = steps+1, end
		}
		var stateTime [device.NumStates]float64
		stateTime[device.StateSeek] = float64(n) * tsk
		stateTime[device.StateReadWrite] = float64(n) * refill
		stateTime[device.StateShutdown] = float64(n) * tsd
		stateTime[device.StateStandby] = simulated - float64(n)*active

		name := fmt.Sprintf("%v through %v for %.6g s", rate, buffer, end)
		got, err := RunConfig(Config{Device: dev, DRAM: dram, Buffer: buffer, Spec: workload.CBRSpec(rate),
			Duration: units.Second.Scale(end), Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.RefillCycles != n || got.Steps != steps {
			t.Errorf("%s: %d refill cycles in %d steps, the closed form %d in %d", name, got.RefillCycles, got.Steps, n, steps)
		}
		rel := func(field string, g, w float64) {
			if d := relDiff(g, w); d > 1e-10 {
				t.Errorf("%s: %s %.17g, the closed form %.17g (rel %.2e)", name, field, g, w, d)
			}
		}
		for s := 0; s < device.NumStates; s++ {
			state := device.PowerState(s)
			rel(fmt.Sprintf("StateTime[%v]", state), got.StateTime[s].Seconds(), stateTime[s])
			rel(fmt.Sprintf("StateEnergy[%v]", state), got.StateEnergy[s].Joules(), backend.StatePower(state).Watts()*stateTime[s])
		}
		rel("SimulatedTime", got.SimulatedTime.Seconds(), simulated)
		rel("StreamedBits", got.StreamedBits.Bits(), r*simulated)
		rel("MediaBits", got.MediaBits.Bits(), rm*float64(n)*refill)
		rel("DRAMEnergy", got.DRAMEnergy.Joules(),
			dram.BackgroundPower(buffer).Watts()*lastEnd+float64(n)*dram.AccessEnergy(buffer.Scale(2)).Joules())
	}
}
