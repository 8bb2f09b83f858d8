package solve

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisectLinear(t *testing.T) {
	f := func(x float64) float64 { return 2*x - 10 }
	root, err := Bisect(f, 0, 100, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-5) > 1e-6 {
		t.Errorf("root = %g, want 5", root)
	}
}

func TestBisectReversedInterval(t *testing.T) {
	f := func(x float64) float64 { return x - 3 }
	root, err := Bisect(f, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-3) > 1e-6 {
		t.Errorf("root = %g, want 3", root)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if root, err := Bisect(f, 0, 5, 0); err != nil || root != 0 {
		t.Errorf("root at lower endpoint: got %g, %v", root, err)
	}
	g := func(x float64) float64 { return x - 5 }
	if root, err := Bisect(g, 0, 5, 0); err != nil || root != 5 {
		t.Errorf("root at upper endpoint: got %g, %v", root, err)
	}
}

func TestBisectNotBracketed(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -5, 5, 0); !errors.Is(err, ErrNotBracketed) {
		t.Errorf("err = %v, want ErrNotBracketed", err)
	}
}

func TestBisectNaN(t *testing.T) {
	f := func(x float64) float64 { return math.NaN() }
	if _, err := Bisect(f, 0, 1, 0); !errors.Is(err, ErrNotBracketed) {
		t.Errorf("err = %v, want ErrNotBracketed", err)
	}
}

func TestMonotoneRootDecreasingFunction(t *testing.T) {
	// Per-bit-energy-style curve: decreasing in x, crosses the target.
	f := func(x float64) float64 { return 100/x - 4 }
	root, err := MonotoneRoot(f, 1, 1e9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-25) > 1e-5 {
		t.Errorf("root = %g, want 25", root)
	}
}

func TestMonotoneRootIncreasingFunction(t *testing.T) {
	f := func(x float64) float64 { return math.Log(x) - 3 }
	root, err := MonotoneRoot(f, 0.5, 1e9, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Exp(3)) > 1e-4 {
		t.Errorf("root = %g, want %g", root, math.Exp(3))
	}
}

func TestMonotoneRootNoSolution(t *testing.T) {
	f := func(x float64) float64 { return 1 + 1/x }
	if _, err := MonotoneRoot(f, 1, 1e6, 0); !errors.Is(err, ErrNoRoot) {
		t.Errorf("err = %v, want ErrNoRoot", err)
	}
}

func TestMonotoneRootEmptyRange(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := MonotoneRoot(f, 10, 5, 0); !errors.Is(err, ErrNoRoot) {
		t.Errorf("err = %v, want ErrNoRoot", err)
	}
}

func TestMonotoneRootAtLowerBound(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	root, err := MonotoneRoot(f, 1, 100, 0)
	if err != nil || root != 1 {
		t.Errorf("root = %g, err = %v, want exactly 1", root, err)
	}
}

func TestMinimumWhere(t *testing.T) {
	pred := func(x float64) bool { return x >= 42 }
	x, err := MinimumWhere(pred, 0, 1000, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if x < 42 || x > 42.001 {
		t.Errorf("threshold = %g, want ~42 (from above)", x)
	}
}

func TestMinimumWhereAlwaysTrue(t *testing.T) {
	x, err := MinimumWhere(func(float64) bool { return true }, 7, 100, 0)
	if err != nil || x != 7 {
		t.Errorf("x = %g, err = %v, want 7", x, err)
	}
}

func TestMinimumWhereNeverTrue(t *testing.T) {
	if _, err := MinimumWhere(func(float64) bool { return false }, 0, 10, 0); !errors.Is(err, ErrNoRoot) {
		t.Errorf("err = %v, want ErrNoRoot", err)
	}
}

func TestMaximizeUnimodal(t *testing.T) {
	// Peak at x = 3.
	f := func(x float64) float64 { return -(x - 3) * (x - 3) }
	x, fx := MaximizeUnimodal(f, -10, 10, 1e-9)
	if math.Abs(x-3) > 1e-4 {
		t.Errorf("argmax = %g, want 3", x)
	}
	if math.Abs(fx) > 1e-6 {
		t.Errorf("max = %g, want 0", fx)
	}
}

func TestMaximizeUnimodalMonotone(t *testing.T) {
	// Monotonically increasing: the maximum sits at the upper bound.
	f := func(x float64) float64 { return x }
	x, _ := MaximizeUnimodal(f, 0, 50, 1e-9)
	if math.Abs(x-50) > 1e-3 {
		t.Errorf("argmax = %g, want 50", x)
	}
}

// Property: for linear functions with a sign change, Bisect finds the
// analytic root.
func TestQuickBisectLinear(t *testing.T) {
	f := func(slope, intercept float64) bool {
		a := 0.5 + math.Mod(math.Abs(slope), 100)
		b := math.Mod(intercept, 1000)
		fn := func(x float64) float64 { return a*x + b }
		want := -b / a
		root, err := Bisect(fn, want-500, want+500, 1e-12)
		return err == nil && math.Abs(root-want) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
