package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// resettableConfigs enumerates one representative configuration per workload
// family the reset path must replay exactly, including best-effort traffic
// and the ECC error model where they exercise extra state.
func resettableConfigs() map[string]Config {
	base := func(spec workload.StreamSpec) Config {
		cfg := Config{
			Device:   device.DefaultMEMS(),
			DRAM:     device.DefaultDRAM(),
			Buffer:   128 * units.KB,
			Spec:     spec,
			Duration: 2 * units.Minute,
			Seed:     1,
		}
		return cfg
	}
	withBestEffort := base(workload.VBRSpec(1024*units.Kbps, 1))
	withBestEffort.BestEffort = workload.NewBestEffortProcess(0.05, withBestEffort.MediaRate(), 1)
	withECC := base(workload.CBRSpec(1024 * units.Kbps))
	withECC.BitErrorRate = 1e-5
	// The record the retired Stream description produced, kept under its
	// golden key: a hand-built VBR spec carrying VBRSpec's fields.
	legacy := base(workload.StreamSpec{
		Kind:          workload.SpecVBR,
		Rate:          1024 * units.Kbps,
		WriteFraction: 0.4,
		Seed:          1,
		SegmentLength: 2 * units.Second,
		Variability:   0.3,
	})
	trace, err := workload.VideoSpec(1024*units.Kbps, 3).TraceFrames(20 * units.Second)
	if err != nil {
		panic(err)
	}
	return map[string]Config{
		"cbr":           base(workload.CBRSpec(1024 * units.Kbps)),
		"vbr":           base(workload.VBRSpec(1024*units.Kbps, 1)),
		"video":         base(workload.VideoSpec(1024*units.Kbps, 1)),
		"trace":         base(workload.TraceSpec(trace)),
		"best-effort":   withBestEffort,
		"ecc":           withECC,
		"legacy-stream": legacy,
	}
}

// reseed applies the service layer's replica convention to a configuration:
// every stochastic input takes the replica seed.
func reseed(cfg Config, seed uint64) Config {
	cfg.Seed = seed
	cfg.Spec.Seed = seed
	cfg.BestEffort.Seed = seed
	return cfg
}

func TestSimulatorResetMatchesFresh(t *testing.T) {
	for name, cfg := range resettableConfigs() {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			// Replay several seeds through the same simulator; each must be
			// bit-identical to a simulator built fresh for that seed.
			for seed := uint64(2); seed <= 4; seed++ {
				if err := s.Reset(seed); err != nil {
					t.Fatal(err)
				}
				got, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunConfig(reseed(cfg, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(*got, *want) {
					t.Errorf("seed %d: reset run diverges from a fresh simulator", seed)
				}
			}
		})
	}
}

func TestResetForRejectsIncompatibleConfig(t *testing.T) {
	cfg := resettableConfigs()["cbr"]
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.Buffer = cfg.Buffer * 2
	if err := s.ResetFor(changed); err == nil {
		t.Error("ResetFor accepted a configuration differing beyond seeds")
	}
	// Seeds-only changes are exactly what ResetFor is for.
	if err := s.ResetFor(reseed(cfg, 9)); err != nil {
		t.Errorf("ResetFor rejected a seeds-only change: %v", err)
	}
}

// marshal renders statistics to JSON so the batch comparison is literally
// byte-for-byte, not merely DeepEqual.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunBatchResetPathMatchesFresh(t *testing.T) {
	for name, cfg := range resettableConfigs() {
		t.Run(name, func(t *testing.T) {
			const replicas = 9
			cfgs := make([]Config, replicas)
			for i := range cfgs {
				cfgs[i] = reseed(cfg, uint64(i)+1)
			}
			want := make([][]byte, replicas)
			for i := range cfgs {
				stats, err := RunConfig(cfgs[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = marshal(t, stats)
			}
			for _, workers := range []int{0, 1, 2, 7} {
				got, err := RunBatch(context.Background(), workers, cfgs)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i := range got {
					if !bytes.Equal(marshal(t, got[i]), want[i]) {
						t.Errorf("workers=%d: replica %d diverges from its fresh-simulator run", workers, i)
					}
				}
			}
		})
	}
}

func TestRunBatchMixedConfigsStillMatchSequential(t *testing.T) {
	// A batch whose entries differ beyond seeds cannot reuse one simulator
	// throughout: an entry rewinds the worker's simulator only when it is
	// reset-compatible with it and otherwise builds a fresh one, with results
	// identical to the sequential runs either way. In the seed-varied
	// batches over two families A and B, the interleaved A, B, A', B' order
	// rebuilds at every entry on one worker and mixes rewinds and rebuilds
	// on two; the grouped A, A', B, B' order makes one worker rewind, rebuild
	// and rewind again.
	a := resettableConfigs()["cbr"]
	b := a
	b.Buffer = a.Buffer * 2
	c := resettableConfigs()["vbr"]
	famA, famB := resettableConfigs()["vbr"], resettableConfigs()["best-effort"]
	famA2, famB2 := reseed(famA, 5), reseed(famB, 5)
	batches := []struct {
		name    string
		workers []int
		cfgs    []Config
	}{
		{"mixed", []int{2}, []Config{a, b, c}},
		{"interleaved", []int{1, 2}, []Config{famA, famB, famA2, famB2}},
		{"grouped", []int{1}, []Config{famA, famA2, famB, famB2}},
	}
	for _, batch := range batches {
		for _, workers := range batch.workers {
			got, err := RunBatch(context.Background(), workers, batch.cfgs)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", batch.name, workers, err)
			}
			for i, cfg := range batch.cfgs {
				want, err := RunConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s, workers=%d: entry %d diverges from the sequential run", batch.name, workers, i)
				}
			}
		}
	}
}

// reseedMulti applies the service layer's multi-stream replica convention.
func reseedMulti(cfg MultiConfig, seed uint64) MultiConfig {
	cfg.Seed = seed
	cfg.Streams = append([]MultiStream(nil), cfg.Streams...)
	for j := range cfg.Streams {
		cfg.Streams[j].Spec.Seed = seed ^ (uint64(j+1) * 0x9e3779b97f4a7c15)
	}
	cfg.BestEffort.Seed = seed
	return cfg
}

func multiResetConfig() MultiConfig {
	cfg := twoStreamConfig()
	cfg.Streams = append([]MultiStream(nil), cfg.Streams...)
	cfg.Streams[0].Spec = workload.VBRSpec(1024*units.Kbps, 1)
	cfg.BestEffort = workload.NewBestEffortProcess(0.05, cfg.MediaRate(), 1)
	return cfg
}

func TestMultiSimulatorResetMatchesFresh(t *testing.T) {
	cfg := multiResetConfig()
	s, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		if err := s.Reset(seed); err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunMulti(reseedMulti(cfg, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reset multi run diverges from a fresh simulator", seed)
		}
	}
	// The caller's stream slice must stay untouched by the in-place reseeds.
	if cfg.Streams[0].Spec.Seed != 1 {
		t.Error("Reset reached through to the caller's stream slice")
	}
}

func TestMultiResetForRejectsIncompatibleConfig(t *testing.T) {
	cfg := multiResetConfig()
	s, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := reseedMulti(cfg, 2)
	changed.Streams[1].Buffer = changed.Streams[1].Buffer * 2
	if err := s.ResetFor(changed); err == nil {
		t.Error("ResetFor accepted a configuration differing beyond seeds")
	}
	if err := s.ResetFor(reseedMulti(cfg, 2)); err != nil {
		t.Errorf("ResetFor rejected a seeds-only change: %v", err)
	}
}

func TestRunMultiBatchResetPathMatchesFresh(t *testing.T) {
	cfg := multiResetConfig()
	const replicas = 7
	cfgs := make([]MultiConfig, replicas)
	for i := range cfgs {
		cfgs[i] = reseedMulti(cfg, uint64(i)+1)
	}
	want := make([][]byte, replicas)
	for i := range cfgs {
		stats, err := RunMulti(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshal(t, stats)
	}
	for _, workers := range []int{0, 1, 2, 5} {
		got, err := RunMultiBatch(context.Background(), workers, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if !bytes.Equal(marshal(t, got[i]), want[i]) {
				t.Errorf("workers=%d: replica %d diverges from its fresh-simulator run", workers, i)
			}
		}
	}
}

// TestSteadyStateAllocs is the tentpole's allocation guard: once a simulator
// is warm, a reset-and-rerun iteration — a full simulated hour of any
// single-stream kind, with best-effort traffic or the ECC error model on —
// must not allocate at all, and a two-stream shared-device iteration may
// allocate only its two output records (the MultiStats value and its
// per-stream slice).
func TestSteadyStateAllocs(t *testing.T) {
	hourCfg := func(spec workload.StreamSpec) Config {
		return Config{
			Device:   device.DefaultMEMS(),
			DRAM:     device.DefaultDRAM(),
			Buffer:   units.MiB,
			Spec:     spec,
			Duration: units.Hour,
			Seed:     1,
		}
	}
	frames, err := workload.VideoSpec(1024*units.Kbps, 1).TraceFrames(units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	bestEffort := hourCfg(workload.CBRSpec(1024 * units.Kbps))
	bestEffort.BestEffort = workload.NewBestEffortProcess(0.05, bestEffort.MediaRate(), 1)
	withECC := hourCfg(workload.CBRSpec(1024 * units.Kbps))
	withECC.BitErrorRate = 1e-4
	singles := map[string]Config{
		"cbr":            hourCfg(workload.CBRSpec(1024 * units.Kbps)),
		"vbr":            hourCfg(workload.VBRSpec(1024*units.Kbps, 1)),
		"video":          hourCfg(workload.VideoSpec(1024*units.Kbps, 1)),
		"trace":          hourCfg(workload.TraceSpec(frames)),
		"cbr-besteffort": bestEffort,
		"cbr-ecc":        withECC,
	}
	for name, cfg := range singles {
		t.Run(name, func(t *testing.T) {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed := uint64(0)
			iterate := func() {
				seed++
				if err := s.Reset(seed); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			iterate() // warm up
			if allocs := testing.AllocsPerRun(5, iterate); allocs != 0 {
				t.Errorf("%s steady state allocates %.1f times per simulated hour, want 0", name, allocs)
			}
		})
	}

	t.Run("multi", func(t *testing.T) {
		cfg := twoStreamConfig()
		cfg.Duration = units.Hour
		s, err := NewMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(0)
		iterate := func() {
			seed++
			if err := s.Reset(seed); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		iterate() // warm up
		if allocs := testing.AllocsPerRun(5, iterate); allocs > 2 {
			t.Errorf("multi steady state allocates %.1f times per simulated hour, want at most 2 (the output records)", allocs)
		}
	})
}
