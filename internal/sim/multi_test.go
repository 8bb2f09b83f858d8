package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// twoStreamConfig is the canonical playback + recording mix through
// rate-proportional one-second buffers.
func twoStreamConfig() MultiConfig {
	return MultiConfig{
		Device: device.DefaultMEMS(),
		DRAM:   device.DefaultDRAM(),
		Streams: []MultiStream{
			{Name: "playback", Spec: playbackSpec(1024 * units.Kbps), Buffer: (1024 * units.Kbps).Times(units.Second)},
			{Name: "recording", Spec: recordingSpec(512 * units.Kbps), Buffer: (512 * units.Kbps).Times(units.Second)},
		},
		Duration: 2 * units.Minute,
		Seed:     1,
	}
}

func playbackSpec(rate units.BitRate) workload.StreamSpec {
	s := workload.CBRSpec(rate)
	s.WriteFraction = 0
	return s
}

func recordingSpec(rate units.BitRate) workload.StreamSpec {
	s := workload.CBRSpec(rate)
	s.WriteFraction = 1
	return s
}

func TestMultiConfigValidate(t *testing.T) {
	good := twoStreamConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}

	noStreams := good
	noStreams.Streams = nil
	if err := noStreams.Validate(); err == nil {
		t.Error("empty stream set accepted")
	}

	badPolicy := good
	badPolicy.Policy = engine.Policy("fifo")
	if err := badPolicy.Validate(); err == nil || !strings.Contains(err.Error(), "scheduling policy") {
		t.Errorf("unknown policy accepted: %v", err)
	}

	badBuffer := good
	badBuffer.Streams = append([]MultiStream{}, good.Streams...)
	badBuffer.Streams[1].Buffer = 0
	if err := badBuffer.Validate(); err == nil || !strings.Contains(err.Error(), "recording") {
		t.Errorf("zero buffer accepted or stream not named: %v", err)
	}

	tooFast := good
	tooFast.Streams = []MultiStream{
		{Name: "a", Spec: playbackSpec(60 * units.Mbps), Buffer: units.MiB},
		{Name: "b", Spec: playbackSpec(60 * units.Mbps), Buffer: units.MiB},
	}
	if err := tooFast.Validate(); err == nil || !strings.Contains(err.Error(), "aggregate") {
		t.Errorf("inadmissible aggregate rate accepted: %v", err)
	}

	noDuration := good
	noDuration.Duration = 0
	if err := noDuration.Validate(); err == nil {
		t.Error("zero duration accepted")
	}

	// A run loops until its clock reaches the duration, so an infinite one
	// would never return.
	endless := good
	endless.Duration = units.Duration(math.Inf(1))
	if err := endless.Validate(); err == nil || !strings.Contains(err.Error(), "duration must be finite") {
		t.Errorf("infinite duration accepted: %v", err)
	}
	infBuffer := good
	infBuffer.Streams = append([]MultiStream{}, good.Streams...)
	infBuffer.Streams[1].Buffer = units.Size(math.Inf(1))
	if err := infBuffer.Validate(); err == nil || !strings.Contains(err.Error(), "recording): buffer must be finite") {
		t.Errorf("infinite buffer accepted or stream not named: %v", err)
	}

	for _, share := range []float64{-0.2, math.NaN()} {
		badShare := good
		badShare.BestEffort = workload.NewBestEffortProcess(share, good.MediaRate(), 1)
		if err := badShare.Validate(); err == nil {
			t.Errorf("best-effort share %v accepted", share)
		}
	}
}

func TestRunMultiBasic(t *testing.T) {
	stats, err := RunMulti(twoStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := stats.Device
	if dev.SimulatedTime < 2*units.Minute {
		t.Errorf("simulated %v, want at least 2 min", dev.SimulatedTime)
	}
	if dev.RefillCycles == 0 {
		t.Fatal("no wake-ups")
	}
	if dev.Underruns != 0 {
		t.Errorf("%d underruns with rate-proportional buffers", dev.Underruns)
	}
	if len(stats.Streams) != 2 {
		t.Fatalf("%d stream records, want 2", len(stats.Streams))
	}
	// Per-stream streamed bits sum to the device total, and each stream
	// streamed roughly rate * time.
	var sum units.Size
	for i, st := range stats.Streams {
		sum = sum.Add(st.StreamedBits)
		if st.RefillCycles == 0 {
			t.Errorf("stream %d never refilled", i)
		}
	}
	if math.Abs(sum.DivideBy(dev.StreamedBits)-1) > 1e-9 {
		t.Errorf("per-stream streamed bits %v do not sum to the device total %v", sum, dev.StreamedBits)
	}
	want0 := (1024 * units.Kbps).Times(dev.SimulatedTime)
	if got := stats.Streams[0].StreamedBits; math.Abs(got.DivideBy(want0)-1) > 0.01 {
		t.Errorf("playback streamed %v, want about %v", got, want0)
	}
	// The recording stream alone wears the probes.
	if stats.Streams[0].WrittenUserBits.Positive() {
		t.Error("pure playback credited write wear")
	}
	if !stats.Streams[1].WrittenUserBits.Positive() {
		t.Error("recording credited no write wear")
	}
	// Energy shares are positive and sum to one.
	total := 0.0
	for i := range stats.Streams {
		share := stats.EnergyShare(i)
		if share <= 0 || share >= 1 {
			t.Errorf("energy share %d = %g", i, share)
		}
		total += share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("energy shares sum to %g, want 1", total)
	}
	// The faster stream carries the larger share.
	if stats.EnergyShare(0) <= stats.EnergyShare(1) {
		t.Errorf("playback share %g should exceed recording share %g",
			stats.EnergyShare(0), stats.EnergyShare(1))
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	cfg := twoStreamConfig()
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), cfg.Seed)
	a, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical configurations produced different statistics")
	}
}

// TestRunMultiPriorityEqualClassesMatchMostUrgent pins the priority policy's
// degenerate case: with every stream in the same class it must order exactly
// like most-urgent, so the two runs are bit-identical.
func TestRunMultiPriorityEqualClassesMatchMostUrgent(t *testing.T) {
	want, err := RunMulti(policyParityConfig(engine.PolicyMostUrgent))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMulti(policyParityConfig(engine.PolicyPriority))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("equal-priority run diverged from most-urgent:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRunMultiPriorityServesCleanly runs a mixed-priority set and checks the
// policy keeps every stream healthy.
func TestRunMultiPriorityServesCleanly(t *testing.T) {
	cfg := policyParityConfig(engine.PolicyPriority)
	cfg.Streams[0].Priority = 1
	cfg.Streams[2].Priority = 2
	stats, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Device.Underruns != 0 {
		t.Errorf("%d underruns under mixed priorities", stats.Device.Underruns)
	}
	if stats.Device.RefillCycles == 0 {
		t.Error("no wake-ups")
	}
}

func TestRunMultiPoliciesBothServeCleanly(t *testing.T) {
	for _, policy := range []engine.Policy{engine.PolicyRoundRobin, engine.PolicyMostUrgent} {
		cfg := twoStreamConfig()
		cfg.Policy = policy
		stats, err := RunMulti(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if stats.Device.Underruns != 0 {
			t.Errorf("%s: %d underruns", policy, stats.Device.Underruns)
		}
		if stats.Device.RefillCycles == 0 {
			t.Errorf("%s: no wake-ups", policy)
		}
	}
}

func TestRunMultiMixedWorkloadKinds(t *testing.T) {
	cfg := MultiConfig{
		Device: device.DefaultMEMS(),
		DRAM:   device.DefaultDRAM(),
		Streams: []MultiStream{
			{Name: "cbr", Spec: workload.CBRSpec(1024 * units.Kbps), Buffer: 256 * units.KB},
			{Name: "vbr", Spec: workload.VBRSpec(512*units.Kbps, 7), Buffer: 256 * units.KB},
			{Name: "video", Spec: workload.VideoSpec(768*units.Kbps, 7), Buffer: 512 * units.KB},
		},
		Duration: units.Minute,
		Seed:     7,
	}
	stats, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stats.Streams {
		if !st.StreamedBits.Positive() {
			t.Errorf("stream %d (%s) streamed nothing", i, st.Name)
		}
	}
	if stats.Device.Underruns != 0 {
		t.Errorf("%d underruns with generous buffers", stats.Device.Underruns)
	}
}

// oneStreamCase is one point of the K=1 property: a workload kind (0 CBR,
// 1 VBR, 2 video, 3 trace), its rate, a buffer (MEMS KiB; the disk's buffer
// is 64 times larger), a best-effort share in percent (below 50), the
// backend and a seed.
type oneStreamCase struct {
	kind      uint8
	rateKbps  uint16
	bufferKiB uint16
	bePercent uint8
	disk      bool
	seed      uint64
}

// oneStreamGrid covers CBR, VBR, video and trace demand at 0, 5 and 20 %
// best effort, through a small and a large MEMS buffer and an 8 MiB disk
// buffer.
func oneStreamGrid() []oneStreamCase {
	var grid []oneStreamCase
	for kind := uint8(0); kind < 4; kind++ {
		for _, be := range []uint8{0, 5, 20} {
			for _, buf := range []struct {
				kib  uint16
				disk bool
			}{{16, false}, {128, false}, {128, true}} {
				grid = append(grid, oneStreamCase{kind, 1024, buf.kib, be, buf.disk, uint64(kind) + 1})
			}
		}
	}
	return grid
}

// config builds the case's single-stream configuration: ten simulated
// minutes, so a disk buffer refills several times. The rate is clamped to
// 32 kbps – 8 Mbps.
func (c oneStreamCase) config(t *testing.T) Config {
	rate := units.Kbps.Scale(math.Min(math.Max(float64(c.rateKbps), 32), 8192))
	var spec workload.StreamSpec
	switch c.kind % 4 {
	case 0:
		spec = workload.CBRSpec(rate)
	case 1:
		spec = workload.VBRSpec(rate, c.seed)
	case 2:
		spec = workload.VideoSpec(rate, c.seed)
	default:
		frames, err := workload.VideoSpec(rate, c.seed).TraceFrames(20 * units.Second)
		if err != nil {
			t.Fatal(err)
		}
		spec = workload.TraceSpec(frames)
	}
	cfg := Config{
		Device:   device.DefaultMEMS(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   units.KiB.Scale(float64(c.bufferKiB)),
		Spec:     spec,
		Duration: 10 * units.Minute,
		Seed:     c.seed,
	}
	if c.disk {
		cfg.Backend = engine.NewDisk(device.Default18InchDisk())
		cfg.Buffer = cfg.Buffer.Scale(64)
	}
	cfg.BestEffort = workload.NewBestEffortProcess(float64(c.bePercent%50)/100, cfg.MediaRate(), c.seed)
	return cfg
}

// checkOneStreamIsSingle runs cfg through the single-stream simulator and as
// a one-stream shared device. Both must reject it, or both must return the
// same device record in every Stats field, bit for bit. It reports whether
// both ran.
func checkOneStreamIsSingle(t *testing.T, cfg Config) bool {
	t.Helper()
	single, err := RunConfig(cfg)
	multi, merr := RunMulti(MultiConfig{
		Device:     cfg.Device,
		Backend:    cfg.Backend,
		DRAM:       cfg.DRAM,
		Streams:    []MultiStream{{Name: "only", Spec: cfg.Spec, Buffer: cfg.Buffer}},
		BestEffort: cfg.BestEffort,
		Duration:   cfg.Duration,
		Seed:       cfg.Seed,
	})
	if (err == nil) != (merr == nil) {
		t.Fatalf("single-stream error %v, one-stream shared-device error %v", err, merr)
	}
	if err != nil {
		return false
	}
	if !reflect.DeepEqual(*single, multi.Device) {
		t.Errorf("one-stream shared device diverged from the single-stream simulator:\n got %+v\nwant %+v", multi.Device, *single)
	}
	return true
}

// TestRunMultiSingleStreamMatchesSingleSimulator: a one-stream shared device
// is the single-stream simulator. Over CBR, VBR, video and trace demand, 0,
// 5 and 20 % best effort, MEMS and disk, and several buffers, its device
// record equals RunConfig's in every field.
func TestRunMultiSingleStreamMatchesSingleSimulator(t *testing.T) {
	for _, c := range oneStreamGrid() {
		if !checkOneStreamIsSingle(t, c.config(t)) {
			t.Errorf("%+v: rejected", c)
		}
	}
}

// FuzzOneStreamSharedDeviceIsSingle checks the K=1 property on generated
// configurations, seeded with TestRunMultiSingleStreamMatchesSingleSimulator's
// grid.
func FuzzOneStreamSharedDeviceIsSingle(f *testing.F) {
	for _, c := range oneStreamGrid() {
		f.Add(c.kind, c.rateKbps, c.bufferKiB, c.bePercent, c.disk, c.seed)
	}
	f.Fuzz(func(t *testing.T, kind uint8, rateKbps, bufferKiB uint16, bePercent uint8, disk bool, seed uint64) {
		checkOneStreamIsSingle(t, oneStreamCase{kind, rateKbps, bufferKiB, bePercent, disk, seed}.config(t))
	})
}

func TestRunMultiRejectsBufferBelowServiceRound(t *testing.T) {
	cfg := twoStreamConfig()
	cfg.Streams = append([]MultiStream{}, cfg.Streams...)
	// A buffer that cannot even cover the service round's drain must be
	// rejected with an error naming the stream.
	cfg.Streams[1].Buffer = 64 * units.Bit
	_, err := RunMulti(cfg)
	if err == nil || !strings.Contains(err.Error(), "recording") {
		t.Errorf("tiny buffer accepted or stream not named: %v", err)
	}
}

func TestRunMultiBatchMatchesSequential(t *testing.T) {
	cfgs := []MultiConfig{twoStreamConfig(), twoStreamConfig(), twoStreamConfig()}
	cfgs[1].Seed = 2
	cfgs[1].Policy = engine.PolicyMostUrgent
	cfgs[2].Duration = units.Minute

	parallelStats, err := RunMultiBatch(context.Background(), 0, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		seq, err := RunMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallelStats[i], seq) {
			t.Errorf("batch entry %d differs from the sequential run", i)
		}
	}

	bad := twoStreamConfig()
	bad.Duration = 0
	if _, err := RunMultiBatch(context.Background(), 2, []MultiConfig{twoStreamConfig(), bad}); err == nil ||
		!strings.Contains(err.Error(), "batch config 1") {
		t.Errorf("failing batch entry not named: %v", err)
	}
}
