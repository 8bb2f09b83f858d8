// Package format implements the capacity model of the paper (Section III-B):
// how user data is organised into sectors, how much ECC and synchronisation
// overhead the device adds, and what fraction of the raw capacity is left for
// user data as a function of the sector (and therefore streaming-buffer) size.
//
// A sector of Su user bits is extended with SECC = ceil(Su/8) ECC bits
// (Eq. in III-B.1), striped across the K active probes, and each per-probe
// subsector carries a fixed number of synchronisation bits (3 in the paper,
// Eq. 2). The effective sector size is S = K*s (Eq. 3) and the capacity
// utilisation u = Su/S (Eq. 4).
package format

import (
	"errors"
	"fmt"
	"math"

	"memstream/internal/device"
	"memstream/internal/units"
)

// Layout captures the formatting parameters of the device.
type Layout struct {
	// Probes is K, the number of probes a sector is striped across.
	Probes int
	// SyncBitsPerSubsector is the number of synchronisation bits stored with
	// each per-probe subsector.
	SyncBitsPerSubsector int
	// ECCFraction is the ratio of ECC bits to user bits within a sector.
	ECCFraction float64
	// RawCapacity is the raw formatted capacity of the device (used to report
	// effective user capacity).
	RawCapacity units.Size
}

// NewLayout builds a Layout from a MEMS device description.
func NewLayout(m device.MEMS) Layout {
	return Layout{
		Probes:               m.ActiveProbes,
		SyncBitsPerSubsector: m.SyncBitsPerSubsector,
		ECCFraction:          m.ECCFraction,
		RawCapacity:          m.Capacity,
	}
}

// Validate checks the layout for internal consistency.
func (l Layout) Validate() error {
	var errs []error
	if l.Probes <= 0 {
		errs = append(errs, errors.New("format: probes must be positive"))
	}
	if l.SyncBitsPerSubsector < 0 {
		errs = append(errs, errors.New("format: sync bits must be non-negative"))
	}
	if l.ECCFraction < 0 || l.ECCFraction >= 1 {
		errs = append(errs, errors.New("format: ECC fraction must be in [0, 1)"))
	}
	if l.RawCapacity < 0 {
		errs = append(errs, errors.New("format: raw capacity must be non-negative"))
	}
	return errors.Join(errs...)
}

// Sector describes the on-media representation of one formatted sector.
type Sector struct {
	// UserBits is Su, the user payload of the sector.
	UserBits units.Size
	// ECCBits is SECC = ceil(Su * ECCFraction).
	ECCBits units.Size
	// SubsectorBits is s, the per-probe subsector size including sync bits.
	SubsectorBits units.Size
	// EffectiveBits is S = K * s, the total media bits the sector occupies.
	EffectiveBits units.Size
	// SyncBits is the total synchronisation bits across all subsectors.
	SyncBits units.Size
}

// Utilisation returns u = Su/S, the fraction of media bits storing user data.
func (s Sector) Utilisation() float64 {
	if !s.EffectiveBits.Positive() {
		return 0
	}
	return s.UserBits.DivideBy(s.EffectiveBits)
}

// String summarises the sector formatting.
func (s Sector) String() string {
	return fmt.Sprintf("sector: %v user + %v ECC + %v sync -> %v on media (u = %.1f%%)",
		s.UserBits, s.ECCBits, s.SyncBits, s.EffectiveBits, 100*s.Utilisation())
}

// FormatSector computes the on-media layout of a sector with the given user
// payload (Eqs. 2 and 3 of the paper). A non-positive payload yields a sector
// holding only synchronisation bits.
func (l Layout) FormatSector(userBits units.Size) Sector {
	su := math.Max(0, math.Floor(userBits.Bits()))
	ecc := math.Ceil(su * l.ECCFraction)
	perProbe := math.Ceil((su + ecc) / float64(l.Probes))
	sub := perProbe + float64(l.SyncBitsPerSubsector)
	effective := float64(l.Probes) * sub
	return Sector{
		UserBits:      units.Bit.Scale(su),
		ECCBits:       units.Bit.Scale(ecc),
		SubsectorBits: units.Bit.Scale(sub),
		EffectiveBits: units.Bit.Scale(effective),
		SyncBits:      units.Bit.Scale(float64(l.Probes * l.SyncBitsPerSubsector)),
	}
}

// Utilisation returns the capacity utilisation u(Su) for the given sector
// payload (Eq. 4).
func (l Layout) Utilisation(userBits units.Size) float64 {
	return l.FormatSector(userBits).Utilisation()
}

// WriteInflation returns S/Su, the media bits written per user bit when
// sectors hold the given payload: the ECC and sync bits are written with the
// data and wear the tips too. A sector holding no user bits (a payload below
// one bit) counts as 1.
func (l Layout) WriteInflation(userBits units.Size) float64 {
	sector := l.FormatSector(userBits)
	if !sector.UserBits.Positive() {
		return 1
	}
	return sector.EffectiveBits.DivideBy(sector.UserBits)
}

// UserCapacity returns the effective user capacity of the device when
// formatted with sectors of the given payload: u(Su) * RawCapacity.
func (l Layout) UserCapacity(userBits units.Size) units.Size {
	return l.RawCapacity.Scale(l.Utilisation(userBits))
}

// MaxUtilisation returns the supremum of the capacity utilisation over all
// sector sizes: 1/(1 + ECCFraction) as the sync bits amortise to nothing.
func (l Layout) MaxUtilisation() float64 {
	return 1 / (1 + l.ECCFraction)
}

// MinUserBitsForUtilisation returns the smallest sector payload (in bits)
// whose utilisation reaches the target. Targets at or above MaxUtilisation
// are infeasible and return an error.
//
// The search works per-subsector-payload: for a per-probe payload of p bits
// (so the on-media sector is S = K*(p + sync) bits) the smallest user payload
// reaching the target is ceil(target * S); it is admissible if that payload
// plus its ECC actually fits in K*p bits. Admissibility is monotone in p
// (for targets below the ceiling), so a binary search over p finds the exact
// minimum.
func (l Layout) MinUserBitsForUtilisation(target float64) (units.Size, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if target <= 0 {
		return 0, nil
	}
	if target >= l.MaxUtilisation() {
		return 0, fmt.Errorf("format: utilisation target %.4f unreachable (ceiling %.4f)",
			target, l.MaxUtilisation())
	}
	k := float64(l.Probes)
	sync := float64(l.SyncBitsPerSubsector)
	neededFor := func(p int64) float64 {
		sector := k * (float64(p) + sync)
		return math.Ceil(target * sector)
	}
	fits := func(p int64) bool {
		su := neededFor(p)
		return su+math.Ceil(su*l.ECCFraction) <= k*float64(p)
	}
	// Grow an upper bound for the per-probe payload, then binary search the
	// smallest admissible one.
	hi := int64(1)
	for !fits(hi) {
		hi *= 2
		if hi > int64(1)<<40 {
			return 0, fmt.Errorf("format: utilisation target %.4f unreachable in practice", target)
		}
	}
	lo := hi / 2
	if lo < 1 {
		lo = 1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return units.Bit.Scale(neededFor(hi)), nil
}
