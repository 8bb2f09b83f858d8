package energy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"memstream/internal/device"
	"memstream/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return diff < tol
	}
	return diff/scale < tol
}

func modelAt(t *testing.T, rate units.BitRate) Model {
	t.Helper()
	m, err := New(device.DefaultMEMS(), device.DefaultDRAM(), rate)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// modelNoExtras returns the bare Eq. 1 model: no best-effort share, no DRAM,
// for comparison against hand-computed values.
func modelNoExtras(t *testing.T, rate units.BitRate) Model {
	m := modelAt(t, rate)
	m.BestEffortFraction = 0
	m.IncludeDRAM = false
	return m
}

func TestNewValidates(t *testing.T) {
	if _, err := New(device.DefaultMEMS(), device.DefaultDRAM(), 0); err == nil {
		t.Error("zero stream rate accepted")
	}
	if _, err := New(device.DefaultMEMS(), device.DefaultDRAM(), 200*units.Mbps); !errors.Is(err, ErrRateTooHigh) {
		t.Errorf("rate above media rate: err = %v, want ErrRateTooHigh", err)
	}
	bad := device.DefaultMEMS()
	bad.ActiveProbes = 0
	if _, err := New(bad, device.DefaultDRAM(), 1024*units.Kbps); err == nil {
		t.Error("invalid device accepted")
	}
	m := modelAt(t, 1024*units.Kbps)
	m.BestEffortFraction = 1.5
	if err := m.Validate(); err == nil {
		t.Error("best-effort fraction above 1 accepted")
	}
}

func TestCycleTiming(t *testing.T) {
	// Hand check at rs = 1024 kbps, B = 20 KiB = 163840 bits:
	// rm - rs = 101.376 Mbps, tRW = 1.6162 ms, Tm = tRW * rm/rs = 161.62 ms.
	m := modelNoExtras(t, 1024*units.Kbps)
	cycle, err := m.Cycle(20 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if got := cycle.Transfer.Milliseconds(); !almostEqual(got, 163840.0/101.376e6*1000, 1e-9) {
		t.Errorf("Transfer = %g ms", got)
	}
	wantTm := 163840.0 / 101.376e6 * 102.4e6 / 1.024e6
	if got := cycle.Period.Seconds(); !almostEqual(got, wantTm, 1e-9) {
		t.Errorf("Period = %g s, want %g", got, wantTm)
	}
	// Slack identity: Tm - tRW = B / rs.
	slack := cycle.Period.Sub(cycle.Transfer).Seconds()
	if !almostEqual(slack, 163840.0/1.024e6, 1e-9) {
		t.Errorf("slack = %g s, want B/rs = %g", slack, 163840.0/1.024e6)
	}
	if got := cycle.Overhead.Milliseconds(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Overhead = %g ms, want 3", got)
	}
	if cycle.Standby.Seconds() <= 0 {
		t.Errorf("Standby = %v, want positive", cycle.Standby)
	}
	if !almostEqual(cycle.RefillsPerSecond, 1/wantTm, 1e-9) {
		t.Errorf("RefillsPerSecond = %g", cycle.RefillsPerSecond)
	}
}

func TestCycleErrors(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	if _, err := m.Cycle(0); !errors.Is(err, ErrBufferTooSmall) {
		t.Errorf("zero buffer: err = %v, want ErrBufferTooSmall", err)
	}
	// A buffer far below the minimum leaves no standby time.
	if _, err := m.Cycle(10); !errors.Is(err, ErrBufferTooSmall) {
		t.Errorf("tiny buffer: err = %v, want ErrBufferTooSmall", err)
	}
}

func TestMinimumBuffer(t *testing.T) {
	m := modelNoExtras(t, 1024*units.Kbps)
	minBuf := m.MinimumBuffer()
	if !minBuf.Positive() {
		t.Fatalf("MinimumBuffer = %v, want positive", minBuf)
	}
	// At the minimum buffer the cycle just closes (standby ~ 0).
	cycle, err := m.Cycle(minBuf.Scale(1.000001))
	if err != nil {
		t.Fatalf("cycle at minimum buffer: %v", err)
	}
	if cycle.Standby.Seconds() > 1e-4 {
		t.Errorf("standby at minimum buffer = %v, want about zero", cycle.Standby)
	}
	if _, err := m.Cycle(minBuf.Scale(0.9)); !errors.Is(err, ErrBufferTooSmall) {
		t.Errorf("below minimum buffer: err = %v, want ErrBufferTooSmall", err)
	}
}

func TestPerBitMatchesEquationOne(t *testing.T) {
	// Direct evaluation of Eq. 1 at rs = 1024 kbps, B = 20 KiB, without the
	// best-effort and DRAM extensions.
	m := modelNoExtras(t, 1024*units.Kbps)
	b := 20 * units.KiB
	bd, err := m.PerBit(b)
	if err != nil {
		t.Fatal(err)
	}
	bits := b.Bits()
	rm, rs := 102.4e6, 1.024e6
	tRW := bits / (rm - rs)
	tm := tRW * rm / rs
	toh := 0.003
	poh, prw, psb := 0.672, 0.316, 0.005
	wantOverhead := toh * (poh - psb) / bits
	wantTransfer := tRW * (prw - psb) / bits
	wantStandby := tm * psb / bits
	if got := bd.Overhead.JoulesPerBit(); !almostEqual(got, wantOverhead, 1e-9) {
		t.Errorf("Overhead = %g, want %g", got, wantOverhead)
	}
	if got := bd.Transfer.JoulesPerBit(); !almostEqual(got, wantTransfer, 1e-9) {
		t.Errorf("Transfer = %g, want %g", got, wantTransfer)
	}
	if got := bd.Standby.JoulesPerBit(); !almostEqual(got, wantStandby, 1e-9) {
		t.Errorf("Standby = %g, want %g", got, wantStandby)
	}
	if bd.BestEffort != 0 || bd.DRAM != 0 {
		t.Errorf("extras must be zero when disabled: %+v", bd)
	}
	if got := bd.Total().JoulesPerBit(); !almostEqual(got, wantOverhead+wantTransfer+wantStandby, 1e-9) {
		t.Errorf("Total = %g", got)
	}
}

func TestPerBitEnergyRangeMatchesFigure2a(t *testing.T) {
	// Fig. 2a plots roughly 10-120 nJ/b over buffers of a few kB to 45 kB at
	// 1024 kbps. The bare Eq. 1 model must land in that band and decrease.
	m := modelNoExtras(t, 1024*units.Kbps)
	small, err := m.PerBit(3 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.PerBit(45 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if got := small.Total().NanojoulesPerBit(); got < 40 || got > 130 {
		t.Errorf("per-bit energy at 3 KiB = %g nJ/b, want 40-130", got)
	}
	if got := large.Total().NanojoulesPerBit(); got < 5 || got > 25 {
		t.Errorf("per-bit energy at 45 KiB = %g nJ/b, want 5-25", got)
	}
	if large.Total() >= small.Total() {
		t.Errorf("per-bit energy did not decrease with buffer size")
	}
}

func TestPerBitDecreasesWithBuffer(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	sizes := []units.Size{5 * units.KiB, 10 * units.KiB, 20 * units.KiB, 45 * units.KiB, 90 * units.KiB}
	prev := math.Inf(1)
	for _, b := range sizes {
		bd, err := m.PerBit(b)
		if err != nil {
			t.Fatalf("PerBit(%v): %v", b, err)
		}
		total := bd.Total().JoulesPerBit()
		if total >= prev {
			t.Errorf("per-bit energy not decreasing at %v: %g >= %g", b, total, prev)
		}
		prev = total
	}
}

func TestDRAMEnergyIsNegligible(t *testing.T) {
	// The paper: "DRAM energy consumption is negligible due to its tiny
	// size". For kilobyte buffers the DRAM share must stay below 5 % of the
	// total per-bit energy.
	m := modelAt(t, 1024*units.Kbps)
	for _, b := range []units.Size{5 * units.KiB, 20 * units.KiB, 45 * units.KiB} {
		bd, err := m.PerBit(b)
		if err != nil {
			t.Fatal(err)
		}
		if share := bd.DRAM.JoulesPerBit() / bd.Total().JoulesPerBit(); share > 0.05 {
			t.Errorf("DRAM share at %v = %.1f%%, want < 5%%", b, 100*share)
		}
	}
}

func TestAlwaysOnReference(t *testing.T) {
	// The always-on reference is dominated by idle power: per-bit roughly
	// Pid/rs = 117 nJ/b at 1024 kbps (plus the transfer and best-effort
	// increments), and it does not depend much on the buffer size.
	m := modelNoExtras(t, 1024*units.Kbps)
	on, err := m.AlwaysOnPerBit(20 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if got := on.NanojoulesPerBit(); got < 110 || got > 135 {
		t.Errorf("always-on per-bit = %g nJ/b, want 110-135", got)
	}
	on2, err := m.AlwaysOnPerBit(90 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(on.JoulesPerBit(), on2.JoulesPerBit(), 1e-6) {
		t.Errorf("always-on energy varies with buffer size: %v vs %v", on, on2)
	}
	if _, err := m.AlwaysOnPerBit(0); !errors.Is(err, ErrBufferTooSmall) {
		t.Errorf("always-on with zero buffer: err = %v", err)
	}
}

func TestSavingGrowsWithBuffer(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	s20, err := m.Saving(20 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	s90, err := m.Saving(90 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if s90 <= s20 {
		t.Errorf("saving did not grow with buffer: %g vs %g", s20, s90)
	}
	if s20 < 0.5 || s90 > 1 {
		t.Errorf("savings out of range: %g, %g", s20, s90)
	}
}

func TestMaxSaving(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	saving, buffer, err := m.MaxSaving()
	if err != nil {
		t.Fatal(err)
	}
	if saving < 0.7 || saving > 0.97 {
		t.Errorf("max saving at 1024 kbps = %g, want within (0.7, 0.97)", saving)
	}
	if !buffer.Positive() {
		t.Errorf("argmax buffer = %v, want positive", buffer)
	}
	// The achievable ceiling shrinks as the stream rate grows (the fixed
	// transfer and standby floors weigh more per bit).
	mHigh := modelAt(t, 4096*units.Kbps)
	savingHigh, _, err := mHigh.MaxSaving()
	if err != nil {
		t.Fatal(err)
	}
	if savingHigh >= saving {
		t.Errorf("max saving did not shrink with rate: %g at 4096 vs %g at 1024", savingHigh, saving)
	}
	// A target outside [0, 1), NaN included, is an error, not a reason.
	for _, target := range []float64{-0.1, 1, math.NaN()} {
		if _, reason, err := m.BufferForSaving(target); err == nil {
			t.Errorf("BufferForSaving(%g) accepted the target (reason %q)", target, reason)
		}
	}
}

func TestBreakEvenBufferMatchesPaper(t *testing.T) {
	// Section III-A.1: the MEMS break-even buffer ranges from 0.07 kB at
	// 32 kbps to 8.87 kB at 4096 kbps.
	low := modelAt(t, 32*units.Kbps)
	high := modelAt(t, 4096*units.Kbps)
	bLow, err := low.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	bHigh, err := high.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if got := bLow.Bytes(); got < 60 || got > 85 {
		t.Errorf("break-even at 32 kbps = %g bytes, want about 70 (0.07 kB)", got)
	}
	if got := bHigh.Bytes(); got < 8200 || got > 9500 {
		t.Errorf("break-even at 4096 kbps = %g bytes, want about 8900 (8.87 kB)", got)
	}
	// Break-even scales linearly with the rate.
	if ratio := bHigh.DivideBy(bLow); !almostEqual(ratio, 128, 1e-6) {
		t.Errorf("break-even ratio 4096/32 = %g, want 128", ratio)
	}
}

func TestDiskBreakEvenThreeOrdersLarger(t *testing.T) {
	// Section III-A.1: the 1.8-inch disk needs 0.08-9.29 MB, three orders of
	// magnitude more than MEMS.
	disk := device.Default18InchDisk()
	mems := device.DefaultMEMS()
	for _, rate := range []units.BitRate{32 * units.Kbps, 1024 * units.Kbps, 4096 * units.Kbps} {
		dBE, err := BreakEvenBuffer(DiskBreakEvenAdapter{Disk: disk}, rate)
		if err != nil {
			t.Fatal(err)
		}
		mBE, err := BreakEvenBuffer(MEMSBreakEvenAdapter{Device: mems}, rate)
		if err != nil {
			t.Fatal(err)
		}
		ratio := dBE.DivideBy(mBE)
		if ratio < 500 || ratio > 2000 {
			t.Errorf("disk/MEMS break-even ratio at %v = %g, want about 1000", rate, ratio)
		}
	}
	dBE32, _ := BreakEvenBuffer(DiskBreakEvenAdapter{Disk: disk}, 32*units.Kbps)
	if got := dBE32.Bytes() / 1e6; got < 0.06 || got > 0.1 {
		t.Errorf("disk break-even at 32 kbps = %g MB, want about 0.08", got)
	}
	dBE4096, _ := BreakEvenBuffer(DiskBreakEvenAdapter{Disk: disk}, 4096*units.Kbps)
	if got := dBE4096.Bytes() / 1e6; got < 8 || got > 11 {
		t.Errorf("disk break-even at 4096 kbps = %g MB, want about 9.3", got)
	}
}

func TestBreakEvenBufferErrors(t *testing.T) {
	if _, err := BreakEvenBuffer(MEMSBreakEvenAdapter{Device: device.DefaultMEMS()}, 0); err == nil {
		t.Error("zero rate accepted")
	}
	broken := device.DefaultMEMS()
	broken.IdlePower = broken.StandbyPower
	if _, err := BreakEvenBuffer(MEMSBreakEvenAdapter{Device: broken}, 1024*units.Kbps); err == nil {
		t.Error("idle == standby accepted")
	}
}

func TestSavingNegativeBelowBreakEven(t *testing.T) {
	// Well below the break-even buffer, shutting down costs more energy than
	// it saves, so the saving must be negative (when a cycle closes at all).
	m := modelNoExtras(t, 4096*units.Kbps)
	be, err := m.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	small := be.Scale(0.5)
	if small < m.MinimumBuffer() {
		small = m.MinimumBuffer().Scale(1.01)
	}
	s, err := m.Saving(small)
	if err != nil {
		t.Fatal(err)
	}
	if s >= 0.05 {
		t.Errorf("saving near half the break-even buffer = %g, want about <= 0", s)
	}
	sAtBE, err := m.Saving(be)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.Saving(be.Scale(20))
	if err != nil {
		t.Fatal(err)
	}
	if !(large > sAtBE) {
		t.Errorf("saving at 20x break-even (%g) not above saving at break-even (%g)", large, sAtBE)
	}
}

// Property: the per-bit energy decomposition terms are all non-negative and
// the overhead term scales as 1/B.
func TestQuickBreakdownProperties(t *testing.T) {
	m := modelAt(t, 1024*units.Kbps)
	minBuf := m.MinimumBuffer()
	f := func(raw uint16) bool {
		b := minBuf.Scale(1.1 + float64(raw%1000)/10)
		bd, err := m.PerBit(b)
		if err != nil {
			return false
		}
		if bd.Overhead < 0 || bd.Transfer < 0 || bd.Standby < 0 || bd.BestEffort < 0 || bd.DRAM < 0 {
			return false
		}
		bd2, err := m.PerBit(b.Scale(2))
		if err != nil {
			return false
		}
		// Doubling the buffer halves the per-bit overhead term.
		return almostEqual(bd2.Overhead.JoulesPerBit(), bd.Overhead.JoulesPerBit()/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: saving is monotone non-decreasing in the buffer size over the
// practically relevant range (DRAM retention is too small to bend it back
// down at kilobyte-to-megabyte scales).
func TestQuickSavingMonotone(t *testing.T) {
	m := modelAt(t, 512*units.Kbps)
	minBuf := m.MinimumBuffer()
	f := func(raw uint16) bool {
		b := minBuf.Scale(1.5 + float64(raw%500))
		s1, err1 := m.Saving(b)
		s2, err2 := m.Saving(b.Scale(1.5))
		if err1 != nil || err2 != nil {
			return false
		}
		return s2 >= s1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzSearchSavingMatchesRecords checks the saving the searches compare
// against the records the model reports, over fuzzed devices, DRAM models
// (the floor, partial-die and multi-die background regimes), best-effort
// shares, rates and buffers, some below MinimumBuffer: curve.saving must
// equal 1 − PerBit(B).Total()/AlwaysOnPerBit(B) and Saving(B) bit for bit
// and be unusable exactly where Saving returns an error, and MaxSaving's
// saving must be the one Saving reports at its buffer.
func FuzzSearchSavingMatchesRecords(f *testing.F) {
	def, defDRAM := device.DefaultMEMS(), device.DefaultDRAM()
	seed := func(dieCapacity units.Size, includeDRAM bool, rate units.BitRate, buffer units.Size, nearMinimum float64) {
		f.Add(def.ReadWritePower.Watts(), def.SeekPower.Watts(), def.ShutdownPower.Watts(), def.StandbyPower.Watts(), def.IdlePower.Watts(),
			def.SeekTime.Seconds(), def.ShutdownTime.Seconds(),
			dieCapacity.Bits(), defDRAM.DieBackgroundPower.Watts(), defDRAM.FloorPower.Watts(), defDRAM.AccessEnergyPerBit.JoulesPerBit(),
			0.05, includeDRAM, rate.BitsPerSecond(), buffer.Bits(), nearMinimum)
	}
	// A kilobyte buffer in the default die draws the floor power, half of a
	// 64 KiB die draws more than the floor, and a megabyte spans 17 such dies.
	seed(defDRAM.DieCapacity, true, 1024*units.Kbps, 100*units.KiB, 1.5)
	seed(64*units.KiB, true, 1024*units.Kbps, 32*units.KiB, 1+1e-12)
	seed(64*units.KiB, true, 4096*units.Kbps, units.MiB, 0.999)
	seed(defDRAM.DieCapacity, false, 32*units.Kbps, 0, 20)
	seed(defDRAM.DieCapacity, true, 100*units.Mbps, -units.KiB, 1)
	f.Fuzz(func(t *testing.T, rw, seek, shutdown, standby, idle, seekTime, shutdownTime,
		dieCapacity, diePower, floorPower, access, fbe float64, includeDRAM bool, rate, buffer, nearMinimum float64) {
		dev := device.DefaultMEMS()
		dev.ReadWritePower, dev.SeekPower, dev.ShutdownPower = units.Power(rw), units.Power(seek), units.Power(shutdown)
		dev.StandbyPower, dev.IdlePower = units.Power(standby), units.Power(idle)
		dev.SeekTime, dev.ShutdownTime = units.Duration(seekTime), units.Duration(shutdownTime)
		dram := device.DRAM{
			DieCapacity:        units.Size(dieCapacity),
			DieBackgroundPower: units.Power(diePower),
			FloorPower:         units.Power(floorPower),
			AccessEnergyPerBit: units.EnergyPerBit(access),
		}
		m := Model{Device: dev, Buffer: dram, StreamRate: units.BitRate(rate), BestEffortFraction: fbe, IncludeDRAM: includeDRAM}
		c, err := m.curve()
		if err != nil {
			return // the searches never run on an invalid model
		}
		for _, b := range []units.Size{units.Size(buffer), m.MinimumBuffer().Scale(nearMinimum)} {
			s, ok := c.saving(b)
			want, err := m.Saving(b)
			if ok != (err == nil) {
				t.Fatalf("B = %v: search saving usable %v, Saving error %v", b, ok, err)
			}
			if !ok {
				continue
			}
			perBit, errB := m.PerBit(b)
			alwaysOn, errOn := m.AlwaysOnPerBit(b)
			if errB != nil || errOn != nil {
				t.Fatalf("B = %v: Saving succeeded but PerBit %v, AlwaysOnPerBit %v", b, errB, errOn)
			}
			formula := 1 - perBit.Total().JoulesPerBit()/alwaysOn.JoulesPerBit()
			if math.Float64bits(s) != math.Float64bits(want) || math.Float64bits(s) != math.Float64bits(formula) {
				t.Fatalf("B = %v: search saving %v, Saving %v, 1 − PerBit/AlwaysOn %v", b, s, want, formula)
			}
		}
		maxSaving, best, err := m.MaxSaving()
		if err != nil {
			return
		}
		if s, err := m.Saving(best); err != nil {
			if !math.IsInf(maxSaving, -1) {
				t.Fatalf("MaxSaving %v at %v, where Saving errs: %v", maxSaving, best, err)
			}
		} else if math.Float64bits(s) != math.Float64bits(maxSaving) {
			t.Fatalf("MaxSaving %v at %v, where Saving reports %v", maxSaving, best, s)
		}
	})
}
