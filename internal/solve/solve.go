// Package solve provides the small set of numerical routines the inverse
// buffer-dimensioning functions need: bracketed bisection on continuous
// monotone functions, exponential bracket growing, the smallest point where
// a monotone predicate holds, and golden-section search on unimodal
// functions.
//
// Only monotone problems arise in the model, so the routines are deliberately
// simple and fully deterministic.
package solve

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoRoot is returned when a root cannot be bracketed or found.
var ErrNoRoot = errors.New("solve: no root in interval")

// ErrNotBracketed is returned when the supplied interval does not bracket a
// sign change.
var ErrNotBracketed = errors.New("solve: interval does not bracket a root")

// DefaultTolerance is the default relative tolerance for bisection.
const DefaultTolerance = 1e-9

// DefaultMaxIterations bounds the number of bisection steps.
const DefaultMaxIterations = 200

// Bisect finds x in [lo, hi] with f(x) = 0 by bisection. f(lo) and f(hi) must
// have opposite signs (or one of them must be zero). The result is accurate to
// a relative tolerance of tol on x (or DefaultTolerance if tol <= 0).
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	flo, fhi := f(lo), f(hi)
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return 0, fmt.Errorf("%w: function is NaN at an endpoint", ErrNotBracketed)
	}
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNotBracketed
	}
	for i := 0; i < DefaultMaxIterations; i++ {
		mid := 0.5 * (lo + hi)
		fmid := f(mid)
		if fmid == 0 || (hi-lo) <= tol*math.Max(1, math.Abs(mid)) {
			return mid, nil
		}
		if (fmid > 0) == (flo > 0) {
			lo, flo = mid, fmid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// MonotoneRoot finds x >= lo with f(x) = 0 for a function that is monotone
// (either direction) on [lo, +inf). It grows the bracket geometrically from lo
// up to maxHi; if no sign change is found the equation has no solution in the
// range and ErrNoRoot is returned.
func MonotoneRoot(f func(float64) float64, lo, maxHi, tol float64) (float64, error) {
	if lo <= 0 {
		lo = math.SmallestNonzeroFloat64
	}
	if maxHi <= lo {
		return 0, fmt.Errorf("%w: empty search range [%g, %g]", ErrNoRoot, lo, maxHi)
	}
	flo := f(lo)
	if flo == 0 {
		return lo, nil
	}
	hi := lo
	for hi < maxHi {
		next := hi * 2
		if next > maxHi {
			next = maxHi
		}
		fnext := f(next)
		if fnext == 0 {
			return next, nil
		}
		if (fnext > 0) != (flo > 0) {
			return Bisect(f, hi, next, tol)
		}
		if next == maxHi {
			break
		}
		hi = next
	}
	return 0, ErrNoRoot
}

// MinimumWhere returns the smallest x in [lo, hi] with pred(x) true, assuming
// pred is monotone (false below some threshold, true at and above it). The
// search is a continuous bisection refined to relative tolerance tol. If pred
// is false everywhere in the interval, ErrNoRoot is returned; if it is true at
// lo, lo is returned.
func MinimumWhere(pred func(float64) bool, lo, hi, tol float64) (float64, error) {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	if pred(lo) {
		return lo, nil
	}
	if !pred(hi) {
		return 0, ErrNoRoot
	}
	for i := 0; i < DefaultMaxIterations; i++ {
		mid := 0.5 * (lo + hi)
		if hi-lo <= tol*math.Max(1, math.Abs(mid)) {
			return hi, nil
		}
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// MaximizeUnimodal returns the x in [lo, hi] that maximises the unimodal
// function f, using golden-section search. It is used to find the best
// achievable energy saving over all buffer sizes when checking feasibility of
// an energy goal (the saving curve is increasing-then-flat or
// increasing-then-decreasing once DRAM retention energy is included).
func MaximizeUnimodal(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	if tol <= 0 {
		tol = 1e-7
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < DefaultMaxIterations && (b-a) > tol*math.Max(1, math.Abs(a)+math.Abs(b)); i++ {
		if fc >= fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	x = 0.5 * (a + b)
	return x, f(x)
}
