package multistream

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/format"
	"memstream/internal/lifetime"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// The SHA-256 digests of every value TestModelEquationsArePinned prints, one
// per model part. The shared-device plan, the simulator's wear projections
// and the lifetime model write Eqs. 5 and 6 and the sector write inflation;
// a refactor that moves where they live must leave every bit of their
// outputs, and every error text, where it was. A simulator change moves the
// projections alone, and the other two digests show that it did.
const (
	pinnedPlansDigest       = "f9ed80ef63cd0efdd66c4da377afaf04f787e0e5559c59ad9c9b94f3a41fd2a0"
	pinnedProjectionsDigest = "5e90d153c7bada6e42ba31ba6f681315436a94cbe431105ece2753ce21791fb1"
	pinnedLifetimeDigest    = "3db9bf5e2e293e75d52be7c0707ecfda56a63abd50771281db549ab9841fdfe7"
)

// pinf writes one value in Go syntax, which prints floats in their shortest
// round-tripping form, so the digest sees every bit.
func pinf(h hash.Hash, format string, args ...any) {
	fmt.Fprintf(h, format+"\n", args...)
}

func pinErr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestModelEquationsArePinned hashes System.At and System.Dimension over a
// grid of shared-device systems, the two Stats wear projections of a few
// simulated runs, and the lifetime model's Springs, Probes and
// MaxProbesLifetime from 1 bit to 1 Gbit of buffer, each part on its own.
func TestModelEquationsArePinned(t *testing.T) {
	for _, part := range []struct {
		name   string
		pin    func(*testing.T, hash.Hash)
		digest string
	}{
		{"shared-device plans", pinSharedDevicePlans, pinnedPlansDigest},
		{"wear projections", pinWearProjections, pinnedProjectionsDigest},
		{"lifetime model", pinLifetimeModel, pinnedLifetimeDigest},
	} {
		h := sha256.New()
		part.pin(t, h)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != part.digest {
			t.Errorf("%s moved: digest %s, pinned %s", part.name, got, part.digest)
		}
	}
}

func pinSharedDevicePlans(t *testing.T, h hash.Hash) {
	t.Helper()
	devices := []device.MEMS{device.DefaultMEMS(), device.ImprovedMEMS()}
	rates := []units.BitRate{32 * units.Kbps, 96 * units.Kbps, 256 * units.Kbps,
		768 * units.Kbps, 1024 * units.Kbps, 2048 * units.Kbps, 4096 * units.Kbps}
	writes := []float64{0, 0.4, 1}
	goals := []core.Goal{core.PaperGoalA(), core.PaperGoalB(), core.PaperGoalC85(),
		{EnergySaving: 0.99, CapacityUtilisation: 0.95, Lifetime: 60 * units.Year}}
	var mixes [][]StreamSpec
	for k := 1; k <= 4; k++ {
		for offset := 0; offset < len(rates); offset += 2 {
			var mix []StreamSpec
			for i := 0; i < k; i++ {
				mix = append(mix, StreamSpec{
					Name:          fmt.Sprintf("s%d", i),
					Rate:          rates[(offset+3*i)%len(rates)],
					WriteFraction: writes[(offset+i)%len(writes)],
				})
			}
			mixes = append(mixes, mix)
		}
	}
	// A stream of a few hundred bit/s reaches plan buffers below one bit.
	mixes = append(mixes, []StreamSpec{{Name: "slow", Rate: 256 * units.BitPerSecond, WriteFraction: 0.4}})
	for _, dev := range devices {
		for _, be := range []float64{0.05, 0} {
			wl := lifetime.DefaultWorkload()
			wl.BestEffortFraction = be
			for _, mix := range mixes {
				for _, seeks := range []bool{false, true} {
					s, err := NewSystem(dev, device.DefaultDRAM(), wl, mix)
					pinf(h, "system %s be=%v %#v seeks=%v: %s", dev.Name, be, mix, seeks, pinErr(err))
					if err != nil {
						continue
					}
					s.CountInterStreamSeeks = seeks
					min := s.minimumPeriod().Seconds()
					periods := []float64{min * 0.999, min * (1 + 1e-6)}
					for p := min * 2; p < 120; p *= 7 {
						periods = append(periods, p)
					}
					periods = append(periods, 120, 1e-4, 1e-3)
					for _, p := range periods {
						plan, err := s.At(units.Second.Scale(p))
						pinf(h, "At(%v) = %#v, %s", p, plan, pinErr(err))
					}
					for _, g := range goals {
						d, err := s.Dimension(g)
						pinf(h, "Dimension(%#v) = %#v, %s", g, d, pinErr(err))
					}
				}
			}
		}
	}
}

func pinWearProjections(t *testing.T, h hash.Hash) {
	t.Helper()
	dev := device.DefaultMEMS()
	rate := 1024 * units.Kbps
	calendars := []workload.PlaybackCalendar{workload.DefaultCalendar(), {HoursPerDay: 2.5, DaysPerYear: 300}}
	singles := []sim.Config{
		{Spec: workload.CBRSpec(rate), Buffer: 64 * units.KiB},
		{Spec: workload.VBRSpec(rate, 3), Buffer: 48 * units.KiB,
			BestEffort: workload.NewBestEffortProcess(0.05, dev.MediaRate(), 3)},
		{Spec: workload.VideoSpec(rate, 5), Buffer: 128 * units.KiB},
	}
	for _, cfg := range singles {
		cfg.Device, cfg.DRAM, cfg.Duration, cfg.Seed = dev, device.DefaultDRAM(), 2*units.Minute, 7
		stats, err := sim.RunConfig(cfg)
		if err != nil {
			t.Fatalf("%s run: %v", cfg.Spec.Kind, err)
		}
		for _, cal := range calendars {
			pinf(h, "%s %v: springs %#v probes %#v", cfg.Spec.Kind, cal,
				stats.ProjectedSpringsLifetime(dev, cal), stats.ProjectedProbesLifetime(dev, cal))
		}
	}
	multi := sim.MultiConfig{Device: dev, DRAM: device.DefaultDRAM(), Duration: 2 * units.Minute, Seed: 11,
		BestEffort: workload.NewBestEffortProcess(0.05, dev.MediaRate(), 11)}
	for i, r := range []units.BitRate{1024 * units.Kbps, 512 * units.Kbps, 128 * units.Kbps, 64 * units.Kbps} {
		spec := workload.CBRSpec(r)
		spec.WriteFraction = float64(i%2) * 0.8
		multi.Streams = append(multi.Streams, sim.MultiStream{
			Name: fmt.Sprintf("m%d", i), Spec: spec, Buffer: r.Times(units.Second)})
	}
	stats, err := sim.RunMulti(multi)
	if err != nil {
		t.Fatalf("four-stream run: %v", err)
	}
	for _, cal := range calendars {
		pinf(h, "multi4 %v: springs %#v probes %#v", cal,
			stats.Device.ProjectedSpringsLifetime(dev, cal), stats.Device.ProjectedProbesLifetime(dev, cal))
	}
}

func pinLifetimeModel(t *testing.T, h hash.Hash) {
	t.Helper()
	for _, dev := range []device.MEMS{device.DefaultMEMS(), device.ImprovedMEMS()} {
		for _, w := range []float64{0, 0.4, 1} {
			for _, rate := range []units.BitRate{32 * units.Kbps, 1024 * units.Kbps, 4096 * units.Kbps} {
				wl := lifetime.DefaultWorkload()
				wl.WriteFraction = w
				m, err := lifetime.New(dev, format.NewLayout(dev), wl, rate)
				if err != nil {
					t.Fatal(err)
				}
				pinf(h, "%s w=%v %v: max probes %#v", dev.Name, w, rate, m.MaxProbesLifetime())
				for b := 1.0; b <= 1e9; b = math.Ceil(b * 1.37) {
					size := units.Bit.Scale(b)
					pinf(h, "B=%v springs %#v probes %#v", b, m.Springs(size), m.Probes(size))
				}
			}
		}
	}
}
