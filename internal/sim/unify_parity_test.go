package sim

// Parity guard for the engine unification: the statistics of the seven
// single-stream config families and of a mixed three-stream run under each
// scheduling policy were captured from the pre-unification engine (the
// separate Core/MultiCore implementations) into testdata/unify_golden.json.
// The unified scheduling core must reproduce every single-stream record
// byte for byte — K=1 is literally the single-stream engine. Three later
// records pin the rest of the refill cycle's rules: a single-stream disk run
// with best effort, a priority run with one stream in a higher class, and a
// shared-device run with best effort. The multi-stream records were
// regenerated once, when every stream count came to follow the
// single-stream cycle rule: one summed-buffer DRAM pass per cycle, a top-off
// of the stream serviced last after the backlog, and background writes worn
// into that stream's region. Round-robin and most-urgent still order the
// service rounds as the pre-unification engine did.
//
// Regenerate (only when a deliberate semantic change is being made):
//
//	MEMSTREAM_WRITE_GOLDEN=1 go test ./internal/sim -run TestUnifiedEngineMatchesGolden

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/units"
	"memstream/internal/workload"
)

const unifyGoldenPath = "testdata/unify_golden.json"

// policyParityConfig is the mixed three-stream run whose service orderings
// distinguish the policies: the streams drain at different rates into
// differently sized buffers, so most-urgent visits them in a different order
// than declaration order.
func policyParityConfig(policy engine.Policy) MultiConfig {
	return MultiConfig{
		Device: device.DefaultMEMS(),
		DRAM:   device.DefaultDRAM(),
		Streams: []MultiStream{
			{Name: "cbr", Spec: workload.CBRSpec(1024 * units.Kbps), Buffer: 256 * units.KB},
			{Name: "vbr", Spec: workload.VBRSpec(512*units.Kbps, 7), Buffer: 128 * units.KB},
			{Name: "recording", Spec: recordingSpec(768 * units.Kbps), Buffer: 256 * units.KB},
		},
		Policy:   policy,
		Duration: 2 * units.Minute,
		Seed:     7,
	}
}

// goldenRuns executes every guarded configuration and returns each result
// marshaled to JSON (Go's float64 encoding round-trips exactly, so byte
// equality is bit equality).
func goldenRuns(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	out := make(map[string]json.RawMessage)
	for name, cfg := range resettableConfigs() {
		stats, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out["single/"+name] = marshal(t, stats)
	}
	disk := Config{
		Device:   device.DefaultMEMS(),
		Backend:  engine.NewDisk(device.Default18InchDisk()),
		DRAM:     device.DefaultDRAM(),
		Buffer:   4 * units.MB,
		Spec:     workload.VBRSpec(1024*units.Kbps, 1),
		Duration: 2 * units.Minute,
		Seed:     1,
	}
	disk.BestEffort = workload.NewBestEffortProcess(0.05, disk.MediaRate(), 1)
	stats, err := RunConfig(disk)
	if err != nil {
		t.Fatalf("disk: %v", err)
	}
	out["single/disk"] = marshal(t, stats)

	multi := map[string]MultiConfig{
		"round-robin": policyParityConfig(engine.PolicyRoundRobin),
		"most-urgent": policyParityConfig(engine.PolicyMostUrgent),
		"priority":    policyParityConfig(engine.PolicyPriority),
		"best-effort": policyParityConfig(engine.PolicyRoundRobin),
	}
	multi["priority"].Streams[2].Priority = 1
	be := multi["best-effort"]
	be.BestEffort = workload.NewBestEffortProcess(0.05, be.MediaRate(), 7)
	multi["best-effort"] = be
	for name, cfg := range multi {
		stats, err := RunMulti(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out["multi/"+name] = marshal(t, stats)
	}
	return out
}

func TestUnifiedEngineMatchesGolden(t *testing.T) {
	got := goldenRuns(t)
	if os.Getenv("MEMSTREAM_WRITE_GOLDEN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(unifyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(unifyGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", unifyGoldenPath)
		return
	}
	data, err := os.ReadFile(unifyGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with MEMSTREAM_WRITE_GOLDEN=1): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d records, this test produced %d", len(want), len(got))
	}
	for name, wantJSON := range want {
		gotJSON, ok := got[name]
		if !ok {
			t.Errorf("%s: present in golden file but not produced", name)
			continue
		}
		if compact(t, gotJSON) != compact(t, wantJSON) {
			t.Errorf("%s: diverges from the pre-unification engine\n got: %.200s\nwant: %.200s", name, gotJSON, wantJSON)
		}
	}
}

// compact strips insignificant whitespace so byte comparison sees only the
// values; the number spellings themselves are exact round-trips.
func compact(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
