package units

import (
	"fmt"
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
	switch strings.ToLower(unit) {
	case "", "b", "byte", "bytes":
		return Size(value) * Byte, nil
	case "bit", "bits":
		return Size(value) * Bit, nil
	case "kb", "kib", "kbyte", "kilobyte":
		return Size(value) * KiB, nil
	case "mb", "mib", "mbyte", "megabyte":
		return Size(value) * MiB, nil
	case "gb", "gib":
		return Size(value) * GB, nil
	case "tb", "tib":
		return Size(value) * TB, nil
	case "kbit", "kbits":
		return Size(value * 1000), nil
	case "mbit", "mbits":
		return Size(value * 1e6), nil
	default:
		return 0, fmt.Errorf("parse size %q: unknown unit %q", s, unit)
	}
}

// ParseBitRate parses a bit rate such as "1024 kbps", "2Mbps" or "32kbit/s".
// Bare numbers are interpreted as bit/s.
func ParseBitRate(s string) (BitRate, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse bit rate %q: %w", s, err)
	}
	unit = strings.ToLower(strings.TrimSuffix(strings.ToLower(unit), "/s"))
	switch unit {
	case "", "bps", "bit", "bits":
		return BitRate(value), nil
	case "kbps", "kbit", "kbits", "kb":
		return BitRate(value) * Kbps, nil
	case "mbps", "mbit", "mbits", "mb":
		return BitRate(value) * Mbps, nil
	case "gbps", "gbit", "gbits", "gb":
		return BitRate(value) * Gbps, nil
	default:
		return 0, fmt.Errorf("parse bit rate %q: unknown unit %q", s, unit)
	}
}

// ParseDuration parses a duration such as "2ms", "8 h", "1.5 years" or "30us".
// Bare numbers are interpreted as seconds.
func ParseDuration(s string) (Duration, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse duration %q: %w", s, err)
	}
	switch strings.ToLower(unit) {
	case "", "s", "sec", "secs", "second", "seconds":
		return Duration(value) * Second, nil
	case "ms", "millisecond", "milliseconds":
		return Duration(value) * Millisecond, nil
	case "us", "µs", "microsecond", "microseconds":
		return Duration(value) * Microsecond, nil
	case "min", "mins", "minute", "minutes":
		return Duration(value) * Minute, nil
	case "h", "hr", "hrs", "hour", "hours":
		return Duration(value) * Hour, nil
	case "d", "day", "days":
		return Duration(value) * Day, nil
	case "y", "yr", "yrs", "year", "years":
		return Duration(value) * Year, nil
	default:
		return 0, fmt.Errorf("parse duration %q: unknown unit %q", s, unit)
	}
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
