package core_test

// The analytic golden pins every output of the analytical layer bit for bit:
// the Fig. 3 dimensioning over the paper's rate range and, along the saving
// curve, the full model point, the refill cycle, the Eq. 1 breakdown, the
// always-on reference, the saving and the maximum saving. Values are stored
// as JSON; Go's float64 encoding round-trips exactly, so byte equality is bit
// equality. Error texts of the exported energy methods are pinned too.
//
// Regenerate (only when a deliberate semantic change is being made):
//
//	MEMSTREAM_WRITE_GOLDEN=1 go test ./internal/core -run TestAnalyticModelMatchesGolden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/explore"
	"memstream/internal/units"
)

const analyticGoldenPath = "testdata/analytic_golden.json"

// curveBuffers is the number of log-spaced buffer sizes sampled along each
// saving curve, from just above the minimum buffer to ten seconds of media.
const curveBuffers = 16

// curveRecord is everything the analytical layer reports along one saving
// curve (one device, rate and DRAM setting).
type curveRecord struct {
	Buffers         []units.Size
	Points          []core.Point
	Cycles          []energy.Cycle
	PerBit          []energy.Breakdown
	AlwaysOnPerBit  []units.EnergyPerBit
	Saving          []float64
	MaxSaving       float64
	MaxSavingBuffer units.Size
}

// logBuffers returns n log-spaced sizes from lo to hi inclusive.
func logBuffers(lo, hi units.Size, n int) []units.Size {
	out := make([]units.Size, n)
	ratio := math.Log(hi.Bits() / lo.Bits())
	for i := range out {
		out[i] = units.Bit.Scale(lo.Bits() * math.Exp(ratio*float64(i)/float64(n-1)))
	}
	return out
}

// curve evaluates the model at rate along its saving curve.
func curve(t *testing.T, rate units.BitRate, includeDRAM bool) curveRecord {
	t.Helper()
	m, err := core.NewWithOptions(device.DefaultMEMS(), rate, core.Options{IncludeDRAMEnergy: &includeDRAM})
	if err != nil {
		t.Fatal(err)
	}
	em := m.Energy()
	rec := curveRecord{Buffers: logBuffers(m.MinimumBuffer().Scale(1.01), m.Device.MediaRate().Times(10*units.Second), curveBuffers)}
	for _, b := range rec.Buffers {
		pt, err := m.At(b)
		if err != nil {
			t.Fatalf("At(%v): %v", b, err)
		}
		cycle, err := em.Cycle(b)
		if err != nil {
			t.Fatalf("Cycle(%v): %v", b, err)
		}
		breakdown, err := em.PerBit(b)
		if err != nil {
			t.Fatalf("PerBit(%v): %v", b, err)
		}
		alwaysOn, err := em.AlwaysOnPerBit(b)
		if err != nil {
			t.Fatalf("AlwaysOnPerBit(%v): %v", b, err)
		}
		saving, err := em.Saving(b)
		if err != nil {
			t.Fatalf("Saving(%v): %v", b, err)
		}
		rec.Points = append(rec.Points, pt)
		rec.Cycles = append(rec.Cycles, cycle)
		rec.PerBit = append(rec.PerBit, breakdown)
		rec.AlwaysOnPerBit = append(rec.AlwaysOnPerBit, alwaysOn)
		rec.Saving = append(rec.Saving, saving)
	}
	if rec.MaxSaving, rec.MaxSavingBuffer, err = em.MaxSaving(); err != nil {
		t.Fatalf("MaxSaving: %v", err)
	}
	return rec
}

// errorTexts collects the error messages of the exported energy methods on
// rejected inputs: a buffer too small to close a cycle, a zero buffer and a
// model whose stream rate reaches the media rate.
func errorTexts(t *testing.T) map[string]string {
	t.Helper()
	m, err := core.New(device.DefaultMEMS(), 1024*units.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	valid := m.Energy()
	invalid := valid
	invalid.StreamRate = valid.Device.MediaRate()
	out := make(map[string]string)
	for _, c := range []struct {
		name  string
		model energy.Model
		b     units.Size
	}{
		{"below-minimum", valid, valid.MinimumBuffer().Scale(0.5)},
		{"zero-buffer", valid, 0},
		{"rate-at-media-rate", invalid, 20 * units.KiB},
	} {
		_, err := c.model.Cycle(c.b)
		out[c.name+"/Cycle"] = errText(err)
		_, err = c.model.PerBit(c.b)
		out[c.name+"/PerBit"] = errText(err)
		_, err = c.model.AlwaysOnPerBit(c.b)
		out[c.name+"/AlwaysOnPerBit"] = errText(err)
		_, err = c.model.Saving(c.b)
		out[c.name+"/Saving"] = errText(err)
	}
	_, _, err = invalid.MaxSaving()
	out["rate-at-media-rate/MaxSaving"] = errText(err)
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// analyticRecords evaluates every guarded quantity and returns each record
// marshaled to JSON.
func analyticRecords(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	out := make(map[string]json.RawMessage)
	put := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b
	}
	rates, err := explore.LogSpace(32*units.Kbps, 4096*units.Kbps, 64)
	if err != nil {
		t.Fatal(err)
	}
	goals := []struct {
		name string
		goal core.Goal
	}{{"A", core.PaperGoalA()}, {"B", core.PaperGoalB()}, {"C85", core.PaperGoalC85()}}
	devices := []struct {
		name string
		dev  device.MEMS
	}{{"default", device.DefaultMEMS()}, {"improved", device.ImprovedMEMS()}}
	for _, g := range goals {
		for _, d := range devices {
			dims := make([]core.Dimensioning, len(rates))
			for i, rate := range rates {
				m, err := core.New(d.dev, rate)
				if err != nil {
					t.Fatal(err)
				}
				if dims[i], err = m.Dimension(g.goal); err != nil {
					t.Fatalf("Dimension(%v, %v): %v", g.goal, rate, err)
				}
			}
			put(fmt.Sprintf("dimension/%s/%s", g.name, d.name), dims)
		}
	}
	// The paper's round rates, where rm/rs is exact, and three where it is
	// not, so a reordered rate expression cannot round its way into a match.
	for _, kbps := range []float64{256, 1024, 4096, 96, 384, 1536} {
		for _, dram := range []bool{true, false} {
			put(fmt.Sprintf("curve/%gkbps/dram=%t", kbps, dram), curve(t, units.Kbps.Scale(kbps), dram))
		}
	}
	put("errors", errorTexts(t))
	return out
}

func TestAnalyticModelMatchesGolden(t *testing.T) {
	got := analyticRecords(t)
	if os.Getenv("MEMSTREAM_WRITE_GOLDEN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(analyticGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyticGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", analyticGoldenPath)
		return
	}
	data, err := os.ReadFile(analyticGoldenPath)
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
			t.Errorf("%s: diverges from the golden analytical model\n got: %.300s\nwant: %.300s", name, gotJSON, wantJSON)
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
