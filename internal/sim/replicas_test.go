package sim

import (
	"context"
	"reflect"
	"testing"

	"memstream/internal/engine"
)

// TestRunReplicasMatchesPerReplicaBatch pins the replica runner to the path
// it replaced: building one reseeded Config per replica and running the
// batch. Every family must come out bit-identical, at a worker count that
// forces simulator reuse across replicas.
func TestRunReplicasMatchesPerReplicaBatch(t *testing.T) {
	const seed, replicas = 9, 4
	for name, cfg := range resettableConfigs() {
		t.Run(name, func(t *testing.T) {
			cfgs := make([]Config, replicas)
			for i := range cfgs {
				cfgs[i] = reseedConfig(cfg, seed+uint64(i))
			}
			want, err := RunBatch(context.Background(), 2, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunReplicas(context.Background(), 2, cfg, seed, replicas)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("replica %d diverged from the per-replica batch:\ngot  %+v\nwant %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestRunMultiReplicasMatchesPerReplicaBatch is the shared-device analogue,
// and additionally checks the prototype's stream slice is never reseeded in
// place.
func TestRunMultiReplicasMatchesPerReplicaBatch(t *testing.T) {
	const seed, replicas = 9, 4
	for _, policy := range []engine.Policy{engine.PolicyRoundRobin, engine.PolicyMostUrgent, engine.PolicyPriority} {
		t.Run(string(policy), func(t *testing.T) {
			cfg := policyParityConfig(policy)
			savedStreams := append([]MultiStream(nil), cfg.Streams...)
			cfgs := make([]MultiConfig, replicas)
			for i := range cfgs {
				c := cfg
				c.Streams = append([]MultiStream(nil), cfg.Streams...)
				cfgs[i] = reseedMultiConfig(c, seed+uint64(i))
			}
			want, err := RunMultiBatch(context.Background(), 2, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunMultiReplicas(context.Background(), 2, cfg, seed, replicas)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("replica %d diverged from the per-replica batch:\ngot  %+v\nwant %+v", i, got[i], want[i])
				}
			}
			if !reflect.DeepEqual(cfg.Streams, savedStreams) {
				t.Error("RunMultiReplicas reseeded the caller's stream slice in place")
			}
		})
	}
}
