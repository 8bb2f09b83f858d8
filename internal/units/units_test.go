package units

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
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

func TestSizeConversions(t *testing.T) {
	cases := []struct {
		name  string
		size  Size
		bits  float64
		bytes float64
	}{
		{"one byte", Byte, 8, 1},
		{"one KiB", KiB, 8192, 1024},
		{"one MiB", MiB, 8 * 1024 * 1024, 1024 * 1024},
		{"one decimal GB", GB, 8e9, 1e9},
		{"120 GB device", 120 * GB, 9.6e11, 1.2e11},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.size.Bits(); !almostEqual(got, c.bits, 1e-12) {
				t.Errorf("Bits() = %g, want %g", got, c.bits)
			}
			if got := c.size.Bytes(); !almostEqual(got, c.bytes, 1e-12) {
				t.Errorf("Bytes() = %g, want %g", got, c.bytes)
			}
		})
	}
}

func TestSizeKiBytes(t *testing.T) {
	if got := (20 * KiB).KiBytes(); !almostEqual(got, 20, 1e-12) {
		t.Errorf("20 KiB reports %g KiB", got)
	}
	if got := (90 * KiB).Bits(); !almostEqual(got, 737280, 1e-12) {
		t.Errorf("90 KiB = %g bits, want 737280", got)
	}
}

func TestBitRateTimes(t *testing.T) {
	rate := 1024 * Kbps
	d := 2 * Second
	if got := rate.Times(d).Bits(); !almostEqual(got, 2.048e6, 1e-12) {
		t.Errorf("1024 kbps over 2 s = %g bits, want 2.048e6", got)
	}
}

func TestBitRateTimeFor(t *testing.T) {
	rate := 1024 * Kbps
	size := Size(1.024e6)
	if got := rate.TimeFor(size).Seconds(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("time for 1.024e6 bits at 1024 kbps = %g s, want 1", got)
	}
	if got := BitRate(0).TimeFor(size); !math.IsInf(float64(got), 1) {
		t.Errorf("time at zero rate = %v, want +Inf", got)
	}
}

func TestPowerTimesEnergy(t *testing.T) {
	e := (672 * Milliwatt).Times(3 * Millisecond)
	if got := e.Millijoules(); !almostEqual(got, 2.016, 1e-12) {
		t.Errorf("672 mW over 3 ms = %g mJ, want 2.016", got)
	}
}

func TestEnergyPerBit(t *testing.T) {
	e := Energy(2.016e-3)
	perBit := e.PerBit(Size(40960))
	if got := perBit.NanojoulesPerBit(); !almostEqual(got, 49.21875, 1e-9) {
		t.Errorf("per-bit energy = %g nJ/b, want 49.21875", got)
	}
	if got := e.PerBit(0); !math.IsInf(float64(got), 1) {
		t.Errorf("per-bit energy over zero bits = %v, want +Inf", got)
	}
}

func TestEnergyDividedBy(t *testing.T) {
	p := Energy(2.016e-3).DividedBy(3 * Millisecond)
	if got := p.Milliwatts(); !almostEqual(got, 672, 1e-9) {
		t.Errorf("average power = %g mW, want 672", got)
	}
}

func TestEnergyTimeAt(t *testing.T) {
	d := Energy(2.016e-3).TimeAt(672 * Milliwatt)
	if got := d.Milliseconds(); !almostEqual(got, 3, 1e-9) {
		t.Errorf("time at 672 mW = %g ms, want 3", got)
	}
	if got := Joule.TimeAt(0); !math.IsInf(float64(got), 1) {
		t.Errorf("time at zero power = %v, want +Inf", got)
	}
}

func TestSizeMBytes(t *testing.T) {
	if got := MB.Scale(2.5).MBytes(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("2.5 MB = %g MB, want 2.5", got)
	}
}

func TestDurationNanosecond(t *testing.T) {
	if got := Nanosecond.Seconds(); !almostEqual(got, 1e-9, 1e-24) {
		t.Errorf("Nanosecond = %g s, want 1e-9", got)
	}
}

func TestDurationYears(t *testing.T) {
	if got := Year.Seconds(); !almostEqual(got, 31536000, 1e-12) {
		t.Errorf("Year = %g s, want 31536000", got)
	}
	streamedPerYear := (8 * Hour).Scale(365)
	if got := streamedPerYear.Seconds(); !almostEqual(got, 1.0512e7, 1e-12) {
		t.Errorf("8 h/day over a year = %g s, want 1.0512e7", got)
	}
}

func TestStringFormatting(t *testing.T) {
	cases := []struct {
		got  string
		want string
	}{
		{(2 * KiB).String(), "2 KiB"},
		{(1536 * Byte).String(), "1.5 KiB"},
		{(3 * Byte).String(), "3 B"},
		{Size(2).String(), "2 bit"},
		{(1024 * Kbps).String(), "1.02 Mbps"},
		{(32 * Kbps).String(), "32 kbps"},
		{(2 * Millisecond).String(), "2 ms"},
		{(7 * Year).String(), "7 y"},
		{(316 * Milliwatt).String(), "316 mW"},
		{Energy(2.016e-3).String(), "2.02 mJ"},
		{EnergyPerBit(50e-9).String(), "50 nJ/b"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestSizeStringNegative(t *testing.T) {
	s := Size(-2 * KiB)
	if got := s.String(); !strings.Contains(got, "-2") {
		t.Errorf("negative size formats as %q", got)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want Size
	}{
		{"64 KiB", 64 * KiB},
		{"8.87kB", 8.87 * KiB},
		{"120 GB", 120 * GB},
		{"512 bit", 512},
		{"90KB", 90 * KiB},
		{"16", 16 * Byte},
		{"2 MiB", 2 * MiB},
		{"3 kbit", 3000},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if !almostEqual(float64(got), float64(c.want), 1e-12) {
			t.Errorf("ParseSize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseSizeErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "12 parsec", "-", "1.2.3 kB"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) succeeded, want error", in)
		}
	}
}

func TestParseBitRate(t *testing.T) {
	cases := []struct {
		in   string
		want BitRate
	}{
		{"1024 kbps", 1024 * Kbps},
		{"2Mbps", 2 * Mbps},
		{"32kbit/s", 32 * Kbps},
		{"100000", 100000},
		{"1 Gbps", Gbps},
	}
	for _, c := range cases {
		got, err := ParseBitRate(c.in)
		if err != nil {
			t.Errorf("ParseBitRate(%q): %v", c.in, err)
			continue
		}
		if !almostEqual(float64(got), float64(c.want), 1e-12) {
			t.Errorf("ParseBitRate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseBitRate("1 lightyear"); err == nil {
		t.Error("ParseBitRate with bogus unit succeeded, want error")
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"2ms", 2 * Millisecond},
		{"8 h", 8 * Hour},
		{"1.5 years", 1.5 * Year},
		{"30us", 30 * Microsecond},
		{"45", 45 * Second},
		{"3 d", 3 * Day},
		{"10 min", 10 * Minute},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if !almostEqual(float64(got), float64(c.want), 1e-12) {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseDuration("5 fortnights"); err == nil {
		t.Error("ParseDuration with bogus unit succeeded, want error")
	}
}

// TestParseRejectsOverflow checks that a finite number whose unit scales it
// past the float range is an error quoting the input, not ±Inf.
func TestParseRejectsOverflow(t *testing.T) {
	cases := []struct {
		in    string
		parse func(string) error
	}{
		{"1e300GiB", func(s string) error { _, err := ParseSize(s); return err }},
		{"-1e300 TB", func(s string) error { _, err := ParseSize(s); return err }},
		{"1e300Gbps", func(s string) error { _, err := ParseBitRate(s); return err }},
		{"1e308y", func(s string) error { _, err := ParseDuration(s); return err }},
		{"-1e308 years", func(s string) error { _, err := ParseDuration(s); return err }},
	}
	for _, c := range cases {
		if err := c.parse(c.in); err == nil || !strings.Contains(err.Error(), strconv.Quote(c.in)) {
			t.Errorf("parsing %q: error %v, want one quoting the input", c.in, err)
		}
	}
}

func TestParseExponentNotation(t *testing.T) {
	got, err := ParseSize("1e3 bit")
	if err != nil {
		t.Fatalf("ParseSize(1e3 bit): %v", err)
	}
	if !almostEqual(float64(got), 1000, 1e-12) {
		t.Errorf("ParseSize(1e3 bit) = %v, want 1000 bits", got)
	}
}

// clampPositive maps an arbitrary float into a finite positive range suitable
// for round-trip properties (avoids overflow to +Inf on extreme quick inputs).
func clampPositive(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// Property: rate.Times(rate.TimeFor(size)) round-trips for positive inputs.
func TestQuickRateRoundTrip(t *testing.T) {
	f := func(rateKbps, sizeKiB float64) bool {
		rate := BitRate(clampPositive(rateKbps, 1, 1e6)) * Kbps
		size := Size(clampPositive(sizeKiB, 1, 1e6)) * KiB
		back := rate.Times(rate.TimeFor(size))
		return almostEqual(float64(back), float64(size), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: per-bit energy times size reproduces the total energy.
func TestQuickEnergyPerBitRoundTrip(t *testing.T) {
	f := func(millijoules, kib float64) bool {
		e := Energy(clampPositive(millijoules, 0.001, 1e6)) * Millijoule
		s := Size(clampPositive(kib, 1, 1e6)) * KiB
		back := e.PerBit(s).Times(s)
		return almostEqual(float64(back), float64(e), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Size formatting and parsing agree on byte-scale values.
func TestQuickSizeScaleAdd(t *testing.T) {
	f := func(a, b float64) bool {
		x := Size(math.Abs(a)) * Byte
		y := Size(math.Abs(b)) * Byte
		return almostEqual(float64(x.Add(y)), float64(x)+float64(y), 1e-12) &&
			almostEqual(float64(x.Scale(2)), 2*float64(x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParseQuantities checks the three quantity parsers on arbitrary
// strings: none panics, a nil error comes with a finite value, and an error
// quotes the input it rejects.
func FuzzParseQuantities(f *testing.F) {
	for _, s := range []string{"64 KiB", "1024 kbps", "1.5 years", "-2ms", "1e300GiB", "1e400 s", "NaN", "12 eV", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		check := func(parser string, v float64, err error) {
			if err != nil {
				if !strings.Contains(err.Error(), strconv.Quote(s)) {
					t.Errorf("%s(%q): error %q does not quote the input", parser, s, err)
				}
				return
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s(%q) = %g with a nil error", parser, s, v)
			}
		}
		size, err := ParseSize(s)
		check("ParseSize", size.Bits(), err)
		rate, err := ParseBitRate(s)
		check("ParseBitRate", rate.BitsPerSecond(), err)
		d, err := ParseDuration(s)
		check("ParseDuration", d.Seconds(), err)
	})
}
