// Package explore implements the design-space exploration of Section IV of
// the paper: sweeping the streaming bit rate, dimensioning the buffer for a
// design goal at every rate, identifying which requirement dominates where,
// and locating the feasibility boundary.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/parallel"
	"memstream/internal/units"
)

// RatePoint is the dimensioning result at one streaming rate.
type RatePoint struct {
	// Rate is the streaming bit rate.
	Rate units.BitRate
	// Dimensioning is the buffer requirement at that rate.
	Dimensioning core.Dimensioning
	// BreakEven is the break-even buffer at that rate (for reference curves).
	BreakEven units.Size
	// MinimumBuffer is the smallest buffer that closes a refill cycle.
	MinimumBuffer units.Size
}

// Sweep is a design-space exploration result over a set of streaming rates.
type Sweep struct {
	// Goal is the design goal explored.
	Goal core.Goal
	// Points holds one entry per rate, in ascending rate order.
	Points []RatePoint
}

// Config parameterises a sweep.
type Config struct {
	// Device is the MEMS device to explore.
	Device device.MEMS
	// Goal is the design goal.
	Goal core.Goal
	// Options forwards model construction options (workload, DRAM, ablations).
	Options core.Options
	// Workers bounds the number of rates dimensioned concurrently. Zero uses
	// one worker per CPU; one forces the sequential path. Every worker builds
	// its own model, so the sweep output is identical at any worker count.
	Workers int
}

// LogSpace returns n streaming rates spaced logarithmically between min and
// max (inclusive), mirroring the log-scale x axis of Fig. 3.
func LogSpace(min, max units.BitRate, n int) ([]units.BitRate, error) {
	if n < 2 {
		return nil, errors.New("explore: need at least two rates")
	}
	if !min.Positive() || max <= min {
		return nil, fmt.Errorf("explore: invalid rate range [%v, %v]", min, max)
	}
	out := make([]units.BitRate, n)
	logMin := math.Log(min.BitsPerSecond())
	logMax := math.Log(max.BitsPerSecond())
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = units.BitPerSecond.Scale(math.Exp(logMin + f*(logMax-logMin)))
	}
	return out, nil
}

// Run dimensions the buffer for the goal at every supplied rate, fanning the
// rates out over one worker per CPU.
func Run(cfg Config, rates []units.BitRate) (*Sweep, error) {
	return RunContext(context.Background(), cfg, rates)
}

// RunContext is Run with explicit cancellation. The per-rate dimensioning
// runs on a bounded worker pool (cfg.Workers); each worker constructs and
// owns its model, and the resulting points are ordered by ascending rate
// exactly as the sequential path produces them.
func RunContext(ctx context.Context, cfg Config, rates []units.BitRate) (*Sweep, error) {
	if err := cfg.Goal.Validate(); err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		return nil, errors.New("explore: no rates supplied")
	}
	sorted := append([]units.BitRate(nil), rates...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	points, err := parallel.Map(ctx, cfg.Workers, len(sorted), func(_ context.Context, i int) (RatePoint, error) {
		return dimensionRate(cfg, sorted[i])
	})
	if err != nil {
		return nil, err
	}
	return &Sweep{Goal: cfg.Goal, Points: points}, nil
}

// dimensionRate answers the dimensioning question at one rate with a model
// owned by the calling worker.
func dimensionRate(cfg Config, rate units.BitRate) (RatePoint, error) {
	model, err := core.NewWithOptions(cfg.Device, rate, cfg.Options)
	if err != nil {
		return RatePoint{}, fmt.Errorf("explore: rate %v: %w", rate, err)
	}
	dim, err := model.Dimension(cfg.Goal)
	if err != nil {
		return RatePoint{}, fmt.Errorf("explore: rate %v: %w", rate, err)
	}
	be, err := model.BreakEvenBuffer()
	if err != nil {
		return RatePoint{}, fmt.Errorf("explore: rate %v: %w", rate, err)
	}
	return RatePoint{
		Rate:          rate,
		Dimensioning:  dim,
		BreakEven:     be,
		MinimumBuffer: model.MinimumBuffer(),
	}, nil
}

// Regime is a contiguous range of streaming rates governed by the same
// dominant constraint (or by infeasibility), matching the range annotations
// on top of Fig. 3.
type Regime struct {
	// MinRate and MaxRate bound the regime (inclusive, over sampled rates).
	MinRate units.BitRate
	MaxRate units.BitRate
	// Dominant is the constraint that dictates the buffer in this regime.
	// Meaningless when Feasible is false.
	Dominant core.Constraint
	// Feasible is false for the "X" region where the goal cannot be met.
	Feasible bool
	// Points is the number of sampled rates in the regime.
	Points int
}

// Label returns the paper-style annotation for the regime ("C", "E", "Lsp",
// "Lpb" or "X").
func (r Regime) Label() string {
	if !r.Feasible {
		return "X"
	}
	return r.Dominant.String()
}

// Regimes segments the sweep into dominance regimes in ascending rate order.
func (s *Sweep) Regimes() []Regime {
	var out []Regime
	for _, p := range s.Points {
		feasible := p.Dimensioning.Feasible
		dominant := p.Dimensioning.Dominant
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Feasible == feasible && (!feasible || last.Dominant == dominant) {
				last.MaxRate = p.Rate
				last.Points++
				continue
			}
		}
		out = append(out, Regime{
			MinRate:  p.Rate,
			MaxRate:  p.Rate,
			Dominant: dominant,
			Feasible: feasible,
			Points:   1,
		})
	}
	return out
}

// FeasibilityLimit returns the lowest sampled rate at which the goal becomes
// infeasible, and whether such a rate exists in the sweep. The paper marks
// this limit with a vertical line in Fig. 3a/3b.
func (s *Sweep) FeasibilityLimit() (units.BitRate, bool) {
	for _, p := range s.Points {
		if !p.Dimensioning.Feasible {
			return p.Rate, true
		}
	}
	return 0, false
}

// DominanceShare returns, per constraint, the fraction of sampled feasible
// rates it dominates. It quantifies the paper's core claim that capacity and
// lifetime — not energy — dictate the buffer most of the time.
func (s *Sweep) DominanceShare() map[core.Constraint]float64 {
	var counts [core.NumConstraints]int
	feasible := 0
	for _, p := range s.Points {
		if !p.Dimensioning.Feasible {
			continue
		}
		feasible++
		counts[p.Dimensioning.Dominant]++
	}
	out := make(map[core.Constraint]float64)
	if feasible == 0 {
		return out
	}
	for c, n := range counts {
		if n > 0 {
			out[core.Constraint(c)] = float64(n) / float64(feasible)
		}
	}
	return out
}

// MaxBufferRatio returns the largest ratio between the required buffer and
// the energy-efficiency buffer across feasible rates where both exist. The
// paper highlights a 1-2 order-of-magnitude gap in Fig. 3b.
func (s *Sweep) MaxBufferRatio() float64 {
	max := 0.0
	for _, p := range s.Points {
		d := p.Dimensioning
		if !d.Feasible || !d.EnergyBuffer.Positive() || !d.Buffer.Positive() {
			continue
		}
		ratio := d.Buffer.DivideBy(d.EnergyBuffer)
		if ratio > max {
			max = ratio
		}
	}
	return max
}

// BufferAt returns the required buffer at the sampled rate closest to the
// requested one, and whether the goal is feasible there.
func (s *Sweep) BufferAt(rate units.BitRate) (units.Size, bool, error) {
	if len(s.Points) == 0 {
		return 0, false, errors.New("explore: empty sweep")
	}
	best := 0
	bestDist := math.Inf(1)
	for i, p := range s.Points {
		d := math.Abs(math.Log(p.Rate.BitsPerSecond()) - math.Log(rate.BitsPerSecond()))
		if d < bestDist {
			bestDist = d
			best = i
		}
	}
	p := s.Points[best]
	return p.Dimensioning.Buffer, p.Dimensioning.Feasible, nil
}

// BufferCurve is a point of the Fig. 2 style forward sweep: every model
// output evaluated over a range of buffer sizes at a fixed rate.
type BufferCurve struct {
	// Rate is the fixed streaming rate of the sweep.
	Rate units.BitRate
	// Points holds the model evaluation at each buffer size, ascending.
	Points []core.Point
}

// SweepBuffer evaluates the model at n buffer sizes spaced linearly between
// lo and hi (inclusive) at the configured device and rate, fanning the
// points out over one worker per CPU.
func SweepBuffer(dev device.MEMS, rate units.BitRate, opts core.Options, lo, hi units.Size, n int) (*BufferCurve, error) {
	return SweepBufferContext(context.Background(), dev, rate, opts, lo, hi, n, 0)
}

// SweepBufferContext is SweepBuffer with explicit cancellation and worker
// bound (zero means one worker per CPU, one forces the sequential path). The
// model is built once and shared read-only: every evaluation method on it is
// a pure function of the buffer size, so the curve is identical at any
// worker count.
func SweepBufferContext(ctx context.Context, dev device.MEMS, rate units.BitRate, opts core.Options,
	lo, hi units.Size, n, workers int) (*BufferCurve, error) {

	if n < 2 {
		return nil, errors.New("explore: need at least two buffer sizes")
	}
	if !lo.Positive() || hi <= lo {
		return nil, fmt.Errorf("explore: invalid buffer range [%v, %v]", lo, hi)
	}
	model, err := core.NewWithOptions(dev, rate, opts)
	if err != nil {
		return nil, err
	}
	// Fix the evaluated sizes up front so the pool maps a static index space;
	// sizes below the minimum refill buffer are skipped as before.
	sizes := make([]units.Size, 0, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		b := lo.Add(hi.Sub(lo).Scale(f))
		if b < model.MinimumBuffer() {
			continue
		}
		sizes = append(sizes, b)
	}
	if len(sizes) < 2 {
		return nil, errors.New("explore: buffer range lies below the minimum refill buffer")
	}
	points, err := parallel.Map(ctx, workers, len(sizes), func(_ context.Context, i int) (core.Point, error) {
		pt, err := model.At(sizes[i])
		if err != nil {
			return core.Point{}, fmt.Errorf("explore: buffer %v: %w", sizes[i], err)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return &BufferCurve{Rate: rate, Points: points}, nil
}
