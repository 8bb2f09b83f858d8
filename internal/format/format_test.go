package format

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"memstream/internal/device"
	"memstream/internal/units"
)

func defaultLayout() Layout {
	return NewLayout(device.DefaultMEMS())
}

func TestNewLayoutFromDevice(t *testing.T) {
	l := defaultLayout()
	if l.Probes != 1024 {
		t.Errorf("Probes = %d, want 1024", l.Probes)
	}
	if l.SyncBitsPerSubsector != 3 {
		t.Errorf("SyncBitsPerSubsector = %d, want 3", l.SyncBitsPerSubsector)
	}
	if l.ECCFraction != 0.125 {
		t.Errorf("ECCFraction = %g, want 0.125", l.ECCFraction)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("default layout does not validate: %v", err)
	}
}

func TestValidateRejectsBadLayouts(t *testing.T) {
	bad := []Layout{
		{Probes: 0, ECCFraction: 0.125},
		{Probes: 8, SyncBitsPerSubsector: -1, ECCFraction: 0.125},
		{Probes: 8, ECCFraction: 1.0},
		{Probes: 8, ECCFraction: -0.1},
		{Probes: 8, ECCFraction: 0.125, RawCapacity: -1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %d validated unexpectedly: %+v", i, l)
		}
	}
}

func TestFormatSectorHandComputed(t *testing.T) {
	// Hand-computed example with small numbers: K = 4 probes, 3 sync bits,
	// 1/8 ECC, Su = 100 bits.
	l := Layout{Probes: 4, SyncBitsPerSubsector: 3, ECCFraction: 0.125, RawCapacity: 1000 * units.Byte}
	s := l.FormatSector(100)
	if s.ECCBits != 13 { // ceil(100/8)
		t.Errorf("ECCBits = %v, want 13", s.ECCBits.Bits())
	}
	if s.SubsectorBits != 32 { // ceil(113/4) = 29, +3 sync
		t.Errorf("SubsectorBits = %v, want 32", s.SubsectorBits.Bits())
	}
	if s.EffectiveBits != 128 { // 4 * 32
		t.Errorf("EffectiveBits = %v, want 128", s.EffectiveBits.Bits())
	}
	if got := s.Utilisation(); !almostEqual(got, 100.0/128.0, 1e-12) {
		t.Errorf("Utilisation = %g, want %g", got, 100.0/128.0)
	}
	if got := 1 - s.Utilisation(); !almostEqual(got, 28.0/128.0, 1e-12) {
		t.Errorf("overhead = %g, want %g", got, 28.0/128.0)
	}
	if got := l.WriteInflation(100); got != 128.0/100.0 {
		t.Errorf("WriteInflation = %g, want S/Su = %g", got, 128.0/100.0)
	}
}

func TestFormatSectorZeroPayload(t *testing.T) {
	l := defaultLayout()
	s := l.FormatSector(0)
	if s.UserBits != 0 {
		t.Errorf("UserBits = %v, want 0", s.UserBits)
	}
	if s.Utilisation() != 0 {
		t.Errorf("Utilisation of empty sector = %g, want 0", s.Utilisation())
	}
	// Sync bits are still paid per subsector.
	if s.EffectiveBits != units.Size(1024*3) {
		t.Errorf("EffectiveBits = %v, want %d", s.EffectiveBits.Bits(), 1024*3)
	}
	// A sector with no user bits inflates no user write.
	if got := l.WriteInflation(0.5); got != 1 {
		t.Errorf("WriteInflation below one bit = %g, want 1", got)
	}
}

func TestMaxUtilisationIsEightNinths(t *testing.T) {
	l := defaultLayout()
	if got := l.MaxUtilisation(); !almostEqual(got, 8.0/9.0, 1e-12) {
		t.Errorf("MaxUtilisation = %g, want 8/9", got)
	}
}

func TestPaperCapacityCeiling(t *testing.T) {
	// The paper: "the capacity utilisation of our MEMS storage device tops
	// with 88%, approximately 106 GB out of 120 GB".
	l := defaultLayout()
	bigSector := 1 * units.MiB
	u := l.Utilisation(bigSector)
	if u < 0.88 || u > 8.0/9.0+1e-9 {
		t.Errorf("large-sector utilisation = %g, want within (0.88, 8/9]", u)
	}
	userCap := l.UserCapacity(bigSector)
	if got := userCap.GBytes(); got < 105.5 || got > 107 {
		t.Errorf("effective user capacity = %g GB, want about 106 GB", got)
	}
}

func TestUtilisationGrowsWithSectorSize(t *testing.T) {
	l := defaultLayout()
	sizes := []units.Size{1 * units.KiB, 2 * units.KiB, 7 * units.KiB, 20 * units.KiB, 45 * units.KiB, 200 * units.KiB}
	prev := -1.0
	for _, size := range sizes {
		u := l.Utilisation(size)
		if u <= prev {
			t.Errorf("utilisation did not grow at %v: %g <= %g", size, u, prev)
		}
		prev = u
	}
}

func TestUtilisationSaturatesBeyond7KiB(t *testing.T) {
	// Fig. 2a: "Beyond 7 kB the capacity increase saturates". The gain from
	// 7 KiB to 45 KiB must be small compared to the gain from 1 KiB to 7 KiB.
	l := defaultLayout()
	gainLow := l.Utilisation(7*units.KiB) - l.Utilisation(1*units.KiB)
	gainHigh := l.Utilisation(45*units.KiB) - l.Utilisation(7*units.KiB)
	if gainHigh > gainLow/3 {
		t.Errorf("capacity does not saturate: low gain %g, high gain %g", gainLow, gainHigh)
	}
}

func TestMinUserBitsForUtilisation(t *testing.T) {
	l := defaultLayout()
	targets := []float64{0.5, 0.7, 0.8, 0.85, 0.88}
	for _, target := range targets {
		su, err := l.MinUserBitsForUtilisation(target)
		if err != nil {
			t.Errorf("target %.2f: %v", target, err)
			continue
		}
		if got := l.Utilisation(su); got < target {
			t.Errorf("target %.2f: returned payload %v only reaches %g", target, su, got)
		}
		// The result is (close to) minimal: a payload 5% smaller must miss
		// the target.
		smaller := su.Scale(0.95)
		if smaller.Positive() && l.Utilisation(smaller) >= target {
			t.Errorf("target %.2f: payload %v is not near-minimal", target, su)
		}
	}
}

func TestMinUserBitsForUtilisationInfeasible(t *testing.T) {
	l := defaultLayout()
	if _, err := l.MinUserBitsForUtilisation(8.0 / 9.0); err == nil {
		t.Error("target at the ceiling should be infeasible")
	}
	if _, err := l.MinUserBitsForUtilisation(0.95); err == nil {
		t.Error("target above the ceiling should be infeasible")
	}
}

func TestMinUserBitsForUtilisationTrivialTargets(t *testing.T) {
	l := defaultLayout()
	su, err := l.MinUserBitsForUtilisation(0)
	if err != nil || su != 0 {
		t.Errorf("zero target: %v, %v", su, err)
	}
	su, err = l.MinUserBitsForUtilisation(-0.3)
	if err != nil || su != 0 {
		t.Errorf("negative target: %v, %v", su, err)
	}
}

func TestMinUserBitsForUtilisationInvalidLayout(t *testing.T) {
	l := Layout{Probes: 0, ECCFraction: 0.125}
	if _, err := l.MinUserBitsForUtilisation(0.5); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestSectorString(t *testing.T) {
	s := defaultLayout().FormatSector(8 * units.KiB)
	str := s.String()
	if !strings.Contains(str, "u =") {
		t.Errorf("String() lacks utilisation: %q", str)
	}
}

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

// Property: utilisation always lies in [0, MaxUtilisation] and effective size
// is never smaller than user + ECC bits.
func TestQuickUtilisationBounds(t *testing.T) {
	l := defaultLayout()
	f := func(raw uint32) bool {
		su := units.Size(raw % 10_000_000)
		s := l.FormatSector(su)
		u := s.Utilisation()
		if u < 0 || u > l.MaxUtilisation()+1e-12 {
			return false
		}
		return s.EffectiveBits >= s.UserBits.Add(s.ECCBits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: doubling a probe-aligned payload never decreases utilisation.
func TestQuickUtilisationMonotoneOnAlignedSizes(t *testing.T) {
	l := defaultLayout()
	f := func(raw uint16) bool {
		strides := int64(raw%2048) + 1
		su := units.Size(strides * int64(l.Probes))
		return l.Utilisation(su.Scale(2)) >= l.Utilisation(su)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the ECC sizing in the layout agrees with the paper's one-eighth
// rule for whole-byte payloads.
func TestQuickECCSizing(t *testing.T) {
	l := defaultLayout()
	f := func(raw uint16) bool {
		su := units.Size(raw)
		s := l.FormatSector(su)
		want := math.Ceil(su.Bits() / 8)
		return s.ECCBits.Bits() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
