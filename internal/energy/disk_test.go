package energy

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"memstream/internal/device"
	"memstream/internal/units"
)

func diskModelAt(t *testing.T, rate units.BitRate) DiskModel {
	t.Helper()
	m, err := NewDiskModel(device.Default18InchDisk(), rate)
	if err != nil {
		t.Fatalf("NewDiskModel: %v", err)
	}
	return m
}

func TestNewDiskModelValidation(t *testing.T) {
	if _, err := NewDiskModel(device.Default18InchDisk(), 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewDiskModel(device.Default18InchDisk(), 300*units.Mbps); !errors.Is(err, ErrRateTooHigh) {
		t.Errorf("rate above disk media rate: err = %v", err)
	}
	broken := device.Default18InchDisk()
	broken.Capacity = 0
	if _, err := NewDiskModel(broken, 1024*units.Kbps); err == nil {
		t.Error("broken disk accepted")
	}
	m := diskModelAt(t, 1024*units.Kbps)
	m.BestEffortFraction = 1
	if err := m.Validate(); err == nil {
		t.Error("best-effort fraction of 1 accepted")
	}
}

func TestDiskMinimumBufferIsMegabytes(t *testing.T) {
	// The disk cannot close a spin-down cycle with a kilobyte buffer: its
	// spin-up/down overhead is seconds long, so the minimum buffer at
	// 1024 kbps is on the order of a half megabyte.
	m := diskModelAt(t, 1024*units.Kbps)
	min := m.MinimumBuffer()
	if got := min.Bytes() / 1e6; got < 0.2 || got > 1.5 {
		t.Errorf("disk minimum cycle buffer = %g MB, want a fraction of a megabyte", got)
	}
	// The MEMS minimum buffer at the same rate is three orders smaller.
	mems, err := New(device.DefaultMEMS(), device.DefaultDRAM(), 1024*units.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := min.DivideBy(mems.MinimumBuffer()); ratio < 100 {
		t.Errorf("disk/MEMS minimum buffer ratio = %g, want orders of magnitude", ratio)
	}
}

func TestDiskPerBitDecreasesWithBuffer(t *testing.T) {
	m := diskModelAt(t, 1024*units.Kbps)
	small, err := m.PerBit(2 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	large, err := m.PerBit(32 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if large.Total() >= small.Total() {
		t.Errorf("disk per-bit energy did not decrease: %v -> %v", small.Total(), large.Total())
	}
	if _, err := m.PerBit(10 * units.KiB); !errors.Is(err, ErrBufferTooSmall) {
		t.Errorf("kilobyte buffer accepted for the disk: %v", err)
	}
}

func TestDiskPerBitIsOrdersAboveMEMS(t *testing.T) {
	// At comparable (relative) buffer sizes the disk spends far more energy
	// per streamed bit than the MEMS device — the motivation for MEMS storage
	// in the paper's introduction.
	rate := 1024 * units.Kbps
	disk := diskModelAt(t, rate)
	diskBE, err := disk.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	diskBD, err := disk.PerBit(diskBE.Scale(20))
	if err != nil {
		t.Fatal(err)
	}
	mems, err := New(device.DefaultMEMS(), device.DefaultDRAM(), rate)
	if err != nil {
		t.Fatal(err)
	}
	memsBE, err := mems.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	memsBD, err := mems.PerBit(memsBE.Scale(20))
	if err != nil {
		t.Fatal(err)
	}
	ratio := diskBD.Total().JoulesPerBit() / memsBD.Total().JoulesPerBit()
	if ratio < 3 {
		t.Errorf("disk/MEMS per-bit energy ratio at 20x break-even = %g, want well above 1", ratio)
	}
}

func TestDiskSavingGrowsAndSaturates(t *testing.T) {
	m := diskModelAt(t, 1024*units.Kbps)
	s2, err := m.Saving(2 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	s32, err := m.Saving(32 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if s32 <= s2 {
		t.Errorf("disk saving did not grow with buffer: %g -> %g", s2, s32)
	}
	if s32 < 0.4 || s32 > 1 {
		t.Errorf("disk saving at 32 MiB = %g, want a substantial fraction (disk standby power caps it near 57%%)", s32)
	}
}

func TestDiskBufferForSaving(t *testing.T) {
	m := diskModelAt(t, 1024*units.Kbps)
	b, err := m.BufferForSaving(0.45)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Saving(b)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.45-1e-6 {
		t.Errorf("saving at returned buffer = %g, want >= 0.45", s)
	}
	// The disk's energy buffer for a decent saving is megabytes — orders of
	// magnitude above any MEMS requirement (the inversion the paper builds on).
	if got := b.Bytes() / 1e6; got < 1 {
		t.Errorf("disk buffer for 45%% saving = %g MB, want megabytes", got)
	}
	sSmaller, err := m.Saving(b.Scale(0.8))
	if err == nil && sSmaller >= 0.45 {
		t.Errorf("returned buffer is not near-minimal: 0.8x also achieves %g", sSmaller)
	}
	if _, err := m.BufferForSaving(0.999); !errors.Is(err, ErrNoSaving) {
		t.Errorf("unreachable saving target: err = %v, want ErrNoSaving", err)
	}
	if _, err := m.BufferForSaving(1.2); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := m.BufferForSaving(math.NaN()); err == nil || errors.Is(err, ErrNoSaving) {
		t.Errorf("NaN target: err = %v, want the out-of-range error", err)
	}
}

func TestDiskAlwaysOnErrors(t *testing.T) {
	m := diskModelAt(t, 1024*units.Kbps)
	if _, err := m.AlwaysOnPerBit(0); !errors.Is(err, ErrBufferTooSmall) {
		t.Errorf("zero buffer accepted: %v", err)
	}
}

func TestDiskBreakEvenConsistentWithAdapter(t *testing.T) {
	m := diskModelAt(t, 1024*units.Kbps)
	a, err := m.BreakEvenBuffer()
	if err != nil {
		t.Fatal(err)
	}
	b, err := BreakEvenBuffer(DiskBreakEvenAdapter{Disk: m.Disk}, 1024*units.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("model break-even %v differs from adapter %v", a, b)
	}
}

// TestDiskModelOutputsPinned pins every DiskModel output bit for bit, error
// texts included, over two drives, 12 stream rates from 32 kbps to 50 Mbps,
// three best-effort shares, nine buffers from half the cycle minimum to
// 1000 times it, eight saving targets and the break-even buffer. The hash
// was recorded while the disk still carried its own copy of Eq. 1, so it
// fails if evaluating the disk through the shared curve moves any result.
func TestDiskModelOutputsPinned(t *testing.T) {
	const want = uint64(0x57cef06d1459f882)
	h := fnv.New64a()
	put := func(vs ...float64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	putErr := func(err error) {
		if err != nil {
			h.Write([]byte(err.Error()))
		}
		h.Write([]byte{0})
	}
	noSeek := device.Default18InchDisk()
	noSeek.SeekTime = 0
	for _, disk := range []device.Disk{device.Default18InchDisk(), noSeek} {
		for i := 0; i < 12; i++ {
			rate := units.Kbps.Scale(32 * math.Pow(50000.0/32, float64(i)/11))
			for _, share := range []float64{0, 0.05, 0.2} {
				m := DiskModel{Disk: disk, StreamRate: rate, BestEffortFraction: share}
				minimum := m.MinimumBuffer()
				put(minimum.Bits())
				for _, factor := range []float64{0.5, 1, 1.5, 2, 5, 10, 50, 200, 1000} {
					b := minimum.Scale(factor)
					bd, err := m.PerBit(b)
					put(bd.Overhead.JoulesPerBit(), bd.Transfer.JoulesPerBit(), bd.Standby.JoulesPerBit(),
						bd.BestEffort.JoulesPerBit(), bd.DRAM.JoulesPerBit())
					putErr(err)
					on, err := m.AlwaysOnPerBit(b)
					put(on.JoulesPerBit())
					putErr(err)
					saving, err := m.Saving(b)
					put(saving)
					putErr(err)
				}
				for _, target := range []float64{-0.1, 0, 0.2, 0.5, 0.8, 0.95, 0.999, 1} {
					b, err := m.BufferForSaving(target)
					put(b.Bits())
					putErr(err)
				}
				be, err := m.BreakEvenBuffer()
				put(be.Bits())
				putErr(err)
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("DiskModel output hash %016x, want %016x", got, want)
	}
}
