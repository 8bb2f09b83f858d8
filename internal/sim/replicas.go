package sim

// The pooled runner: n independent runs on a bounded worker pool, one
// simulator slot per worker. Each entry either rewinds the worker's
// simulator through the reset path or builds a fresh one, runs it and copies
// the result out, so a warm entry costs no allocations beyond its output
// record. RunBatch, RunMultiBatch, RunReplicas and RunMultiReplicas are thin
// adapters over it.

import (
	"context"
	"fmt"

	"memstream/internal/parallel"
)

// runPool runs entries [0, n) on at most workers goroutines and returns the
// results in entry order, bit-identical to a sequential loop at any worker
// count. ready readies the worker's slot for entry i: it rewinds the
// simulator already in the slot, or builds a fresh one when the slot is
// empty (the zero S) or cannot replay the entry. run executes the readied
// simulator and returns a result the next rewind cannot touch. Errors name
// the failing entry as "sim: <entry> <i>: ".
func runPool[S, R any](ctx context.Context, workers, n int, entry string,
	ready func(slot S, i int) (S, error), run func(S) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	slots := make([]S, parallel.EffectiveWorkers(workers, n))
	return parallel.MapWorkers(ctx, workers, n, func(_ context.Context, worker, i int) (R, error) {
		var zero R
		s, err := ready(slots[worker], i)
		if err != nil {
			return zero, fmt.Errorf("sim: %s %d: %w", entry, i, err)
		}
		slots[worker] = s
		out, err := run(s)
		if err != nil {
			return zero, fmt.Errorf("sim: %s %d: %w", entry, i, err)
		}
		return out, nil
	})
}

// runCopy runs s and hands back a copy of its statistics: Run returns the
// core's own record, which the next rewind wipes.
func runCopy(s *Simulator) (*Stats, error) {
	stats, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := *stats
	return &out, nil
}

// RunBatch runs every configuration as an independent simulation on a
// bounded worker pool and returns the statistics in input order. The batch
// output is bit-identical to running the configurations sequentially through
// RunConfig, at any worker count.
//
// Each worker keeps one simulator. An entry that is reset-compatible with the
// worker's simulator — identical up to its seed fields — rewinds it instead
// of rebuilding pattern and engine core; any other entry builds and
// validates a fresh simulator. A batch of seed-varied replicas
// therefore reaches the allocation-free steady state: after the first entry
// on each worker, a simulated hour costs zero heap allocations beyond the
// returned Stats value.
//
// workers bounds the pool: zero means one worker per CPU, one forces the
// sequential path. The first failing configuration (lowest index) aborts the
// batch, and the returned error names it.
func RunBatch(ctx context.Context, workers int, cfgs []Config) ([]*Stats, error) {
	return runPool(ctx, workers, len(cfgs), "batch config", func(s *Simulator, i int) (*Simulator, error) {
		if s != nil && s.compatible(cfgs[i]) {
			return s, s.rewind(cfgs[i])
		}
		return New(cfgs[i])
	}, runCopy)
}

// RunMultiBatch runs every configuration as an independent shared-device
// simulation on a bounded worker pool and returns the statistics in input
// order, with the same worker, reuse and error semantics as RunBatch.
func RunMultiBatch(ctx context.Context, workers int, cfgs []MultiConfig) ([]*MultiStats, error) {
	return runPool(ctx, workers, len(cfgs), "batch config", func(s *MultiSimulator, i int) (*MultiSimulator, error) {
		if s != nil && s.compatible(cfgs[i]) {
			return s, s.rewind(cfgs[i])
		}
		return NewMulti(cfgs[i])
	}, (*MultiSimulator).Run)
}

// RunReplicas runs replicas seed-varied copies of one configuration on a
// bounded worker pool: replica i takes seed+i applied to every stochastic
// input, exactly as Simulator.Reset does, and the statistics come back in
// replica order, bit-identical to sequential fresh runs at any worker count.
// The configuration is validated once; each worker builds one simulator and
// rewinds it per replica, so a warm replica allocates only its returned
// Stats. workers follows the RunBatch convention (zero means one worker per
// CPU).
func RunReplicas(ctx context.Context, workers int, cfg Config, seed uint64, replicas int) ([]*Stats, error) {
	if replicas <= 0 {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runPool(ctx, workers, replicas, "replica", func(s *Simulator, i int) (*Simulator, error) {
		if s == nil {
			return newValidated(reseedConfig(cfg, seed+uint64(i)))
		}
		return s, s.Reset(seed + uint64(i))
	}, runCopy)
}

// RunMultiReplicas is RunReplicas for shared-device configurations: replica
// i takes seed+i applied through the multi-stream convention (stream j draws
// from seed+i ^ ((j+1) · golden ratio)), exactly as MultiSimulator.Reset
// does. The caller's stream slice is never touched.
func RunMultiReplicas(ctx context.Context, workers int, cfg MultiConfig, seed uint64, replicas int) ([]*MultiStats, error) {
	if replicas <= 0 {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runPool(ctx, workers, replicas, "replica", func(s *MultiSimulator, i int) (*MultiSimulator, error) {
		if s == nil {
			// Reseeding writes through the Streams slice, so the first build
			// works on its own copy rather than the shared prototype.
			first := cfg
			first.Streams = append([]MultiStream(nil), cfg.Streams...)
			return newMultiValidated(reseedMultiConfig(first, seed+uint64(i)))
		}
		return s, s.Reset(seed + uint64(i))
	}, (*MultiSimulator).Run)
}

// reseedConfig applies the single-stream replica convention to a
// configuration: every stochastic input — the run's own RNG, the demand
// pattern and the best-effort process — takes the replica seed.
// Simulator.Reset and RunReplicas share it, so the two paths cannot drift
// apart. The convention is the simulator's own; the shared core only hands
// each seed on, to the pattern's Reset and to the best-effort restart.
func reseedConfig(cfg Config, seed uint64) Config {
	cfg.Seed = seed
	cfg.Spec.Seed = seed
	cfg.BestEffort.Seed = seed
	return cfg
}

// reseedMultiConfig applies the multi-stream replica convention: stream j
// draws from seed ^ ((j+1) · golden ratio) so concurrent streams never share
// a random sequence, and the best-effort process takes the replica seed
// itself. As with reseedConfig, the shared core only hands the seeds on. It
// seeds cfg.Streams in place — the caller must own the slice.
func reseedMultiConfig(cfg MultiConfig, seed uint64) MultiConfig {
	cfg.Seed = seed
	for j := range cfg.Streams {
		cfg.Streams[j].Spec.Seed = seed ^ (uint64(j+1) * 0x9e3779b97f4a7c15)
	}
	cfg.BestEffort.Seed = seed
	return cfg
}
