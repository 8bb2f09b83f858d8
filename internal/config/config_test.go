package config

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/lifetime"
	"memstream/internal/units"
)

func TestTableIValidates(t *testing.T) {
	s := TableI()
	if err := s.Validate(); err != nil {
		t.Fatalf("Table I configuration invalid: %v", err)
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	s := TableI()
	dev := s.MEMS()
	if dev.ActiveProbes != 1024 || dev.ProbeArrayRows != 64 {
		t.Errorf("probe configuration wrong: %+v", dev)
	}
	if got := dev.Capacity.GBytes(); math.Abs(got-120) > 1e-9 {
		t.Errorf("capacity = %g GB", got)
	}
	if got := dev.MediaRate().Megabits(); math.Abs(got-102.4) > 1e-9 {
		t.Errorf("media rate = %g Mbps", got)
	}
	if got := dev.ReadWritePower.Milliwatts(); got != 316 {
		t.Errorf("read/write power = %g mW", got)
	}
	wl := s.Lifetime()
	if wl.HoursPerDay != 8 || wl.WriteFraction != 0.4 || wl.BestEffortFraction != 0.05 {
		t.Errorf("workload = %+v", wl)
	}
	if got := s.StreamRate(); got != 1024*units.Kbps {
		t.Errorf("stream rate = %v", got)
	}
	min, max, n := s.Rates()
	if min != 32*units.Kbps || max != 4096*units.Kbps || n != 25 {
		t.Errorf("rate range = %v %v %d", min, max, n)
	}
}

// TestTableIMatchesLibraryDefaults holds the two copies of Table I to each
// other: the study file's device and workload convert to exactly the
// library's defaults, field for field (the device name aside).
func TestTableIMatchesLibraryDefaults(t *testing.T) {
	s := TableI()
	dev, want := s.MEMS(), device.DefaultMEMS()
	dev.Name = want.Name
	if dev != want {
		t.Errorf("TableI().MEMS() = %#v\nwant device.DefaultMEMS() = %#v", dev, want)
	}
	if got, want := s.Lifetime(), lifetime.DefaultWorkload(); got != want {
		t.Errorf("TableI().Lifetime() = %+v, want lifetime.DefaultWorkload() = %+v", got, want)
	}
}

func TestTableIBuildsWorkingModel(t *testing.T) {
	s := TableI()
	wl := s.Lifetime()
	m, err := core.NewWithOptions(s.MEMS(), s.StreamRate(), core.Options{Workload: &wl})
	if err != nil {
		t.Fatalf("model from Table I config: %v", err)
	}
	if _, err := m.At(20 * units.KiB); err != nil {
		t.Fatalf("evaluating Table I model: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := TableI()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"capacityGB\": 120") {
		t.Errorf("serialised JSON missing capacity: %s", buf.String())
	}
	var back Study
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip changed the study:\n%+v\nvs\n%+v", back, s)
	}
}

func TestValidateCatchesBrokenStudies(t *testing.T) {
	s := TableI()
	s.Name = ""
	if err := s.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	s = TableI()
	s.Device.CapacityGB = 0
	if err := s.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	s = TableI()
	s.Workload.HoursPerDay = 0
	if err := s.Validate(); err == nil {
		t.Error("zero hours accepted")
	}
	s = TableI()
	s.RateRange.Points = 1
	if err := s.Validate(); err == nil {
		t.Error("single-point rate range accepted")
	}
	s = TableI()
	s.RateRange.MaxKbps = s.RateRange.MinKbps
	if err := s.Validate(); err == nil {
		t.Error("empty rate range accepted")
	}
	s = TableI()
	s.Workload.StreamRateKbps = 0
	if err := s.Validate(); err == nil {
		t.Error("zero stream rate accepted")
	}
}

func TestSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "study.json")
	s := TableI()
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Study
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Error("save round trip changed the study")
	}
	if err := s.Save(filepath.Join(dir, "no-such-dir", "study.json")); err == nil {
		t.Error("unwritable path accepted")
	}
}
