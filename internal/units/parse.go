package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseSize parses a human-readable data size such as "64 KiB", "8.87kB",
// "120 GB", "512 bit" or "90KB". Bare numbers are interpreted as bytes.
//
// Unit handling follows the package convention: "KB"/"kB"/"KiB" are all
// 1024 bytes (buffer-style sizes), while "GB"/"TB" are decimal
// (capacity-style sizes). Bit units use the suffix "bit" or a lowercase "b"
// preceded by a multiplier ("kb" = 1000 bits).
func ParseSize(s string) (Size, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse size %q: %w", s, err)
	}
	var factor Size
	switch strings.ToLower(unit) {
	case "", "b", "byte", "bytes":
		factor = Byte
	case "bit", "bits":
		factor = Bit
	case "kb", "kib", "kbyte", "kilobyte":
		factor = KiB
	case "mb", "mib", "mbyte", "megabyte":
		factor = MiB
	case "gb", "gib":
		factor = GB
	case "tb", "tib":
		factor = TB
	case "kbit", "kbits":
		factor = 1000 * Bit
	case "mbit", "mbits":
		factor = 1e6 * Bit
	default:
		return 0, fmt.Errorf("parse size %q: unknown unit %q", s, unit)
	}
	return finite("size", s, Size(value)*factor)
}

// ParseBitRate parses a bit rate such as "1024 kbps", "2Mbps" or "32kbit/s".
// Bare numbers are interpreted as bit/s.
func ParseBitRate(s string) (BitRate, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse bit rate %q: %w", s, err)
	}
	unit = strings.ToLower(strings.TrimSuffix(strings.ToLower(unit), "/s"))
	var factor BitRate
	switch unit {
	case "", "bps", "bit", "bits":
		factor = BitPerSecond
	case "kbps", "kbit", "kbits", "kb":
		factor = Kbps
	case "mbps", "mbit", "mbits", "mb":
		factor = Mbps
	case "gbps", "gbit", "gbits", "gb":
		factor = Gbps
	default:
		return 0, fmt.Errorf("parse bit rate %q: unknown unit %q", s, unit)
	}
	return finite("bit rate", s, BitRate(value)*factor)
}

// ParseDuration parses a duration such as "2ms", "8 h", "1.5 years" or "30us".
// Bare numbers are interpreted as seconds.
func ParseDuration(s string) (Duration, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse duration %q: %w", s, err)
	}
	var factor Duration
	switch strings.ToLower(unit) {
	case "", "s", "sec", "secs", "second", "seconds":
		factor = Second
	case "ms", "millisecond", "milliseconds":
		factor = Millisecond
	case "us", "µs", "microsecond", "microseconds":
		factor = Microsecond
	case "min", "mins", "minute", "minutes":
		factor = Minute
	case "h", "hr", "hrs", "hour", "hours":
		factor = Hour
	case "d", "day", "days":
		factor = Day
	case "y", "yr", "yrs", "year", "years":
		factor = Year
	default:
		return 0, fmt.Errorf("parse duration %q: unknown unit %q", s, unit)
	}
	return finite("duration", s, Duration(value)*factor)
}

// finite returns a parsed quantity, or an error when its finite number
// overflowed against its unit ("1e300 GiB").
func finite[Q Size | BitRate | Duration](kind, s string, q Q) (Q, error) {
	if math.IsInf(float64(q), 0) {
		return 0, fmt.Errorf("parse %s %q: value out of range", kind, s)
	}
	return q, nil
}

// splitQuantity splits "12.5 kB" into (12.5, "kB"). The unit may be attached
// directly to the number. An empty unit is allowed.
func splitQuantity(s string) (float64, string, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return 0, "", fmt.Errorf("empty quantity")
	}
	i := 0
	for i < len(trimmed) {
		c := trimmed[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			// Guard against treating the unit's leading 'e' (as in "eV") as
			// part of an exponent: an exponent must be followed by a digit or
			// sign.
			if c == 'e' || c == 'E' {
				if i+1 >= len(trimmed) {
					break
				}
				next := trimmed[i+1]
				if !(next >= '0' && next <= '9') && next != '-' && next != '+' {
					break
				}
			}
			i++
			continue
		}
		break
	}
	numPart := strings.TrimSpace(trimmed[:i])
	unitPart := strings.TrimSpace(trimmed[i:])
	if numPart == "" {
		return 0, "", fmt.Errorf("missing numeric value")
	}
	value, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, "", fmt.Errorf("invalid number %q", numPart)
	}
	return value, unitPart, nil
}
