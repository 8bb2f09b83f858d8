// Package metrics is the dependency-free observability substrate behind
// memsd's /metricsz endpoint: a registry of atomic counters, gauges and
// fixed-bucket histograms with Prometheus text exposition.
//
// The package deliberately implements a small, deterministic subset of the
// Prometheus client model rather than importing one:
//
//   - instruments are lock-free on the hot path (atomic adds; the only
//     locks guard series creation and registration, which happen once);
//   - exposition is byte-stable: families are written in sorted name order
//     and series in sorted label order, maintained as sorted slices at
//     registration time, so no map is ever ranged while writing output —
//     two scrapes of an unchanged registry are byte-identical;
//   - histograms use fixed, caller-chosen bucket bounds, so the exposition
//     shape never depends on the observations.
//
// A Registry is safe for concurrent use. Instruments are created once (at
// service construction) and then updated from any number of goroutines;
// labeled series are created on first use through the *Vec types.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value. It exists to mirror an external monotonic
// counter (a cache or pool total maintained elsewhere) into the registry at
// scrape time; instrumented code paths should use Inc and Add.
func (c *Counter) Store(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are cumulative
// in exposition (Prometheus semantics): the bucket for upper bound le counts
// every observation <= le, and the implicit +Inf bucket counts them all.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; non-cumulative per bucket
	sum    Gauge           // running sum of observations
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Bucket count is small (typically ~14); linear scan beats binary search
	// at this size and keeps the hot path branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) from the
// bucket counts: the upper bound of the bucket containing the q-th
// observation. It is the same estimate a Prometheus histogram_quantile over
// a single scrape would produce with nearest-bound interpolation, good
// enough for p50/p99 summaries in logs and tests.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// DefLatencyBuckets are the default request-latency bucket bounds, in
// seconds: half a millisecond through ten seconds in roughly 1-2.5-5 steps.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// metricKind is the TYPE line of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instrument of a family.
type series struct {
	// key is the sort key: the label values joined with 0xff separators
	// (a byte that cannot appear in valid UTF-8 label text positions used
	// here purely for ordering and map lookup).
	key    string
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	byKey  map[string]*series
	sorted []*series // maintained in key order; read under mu
}

// get returns the series for the given label values, creating it on first
// use. The sorted slice is maintained by insertion so exposition never
// ranges the lookup map.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{key: key, values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	f.byKey[key] = s
	i := sort.Search(len(f.sorted), func(i int) bool { return f.sorted[i].key >= key })
	f.sorted = append(f.sorted, nil)
	copy(f.sorted[i+1:], f.sorted[i:])
	f.sorted[i] = s
	return s
}

// joinKey builds the series sort/lookup key from label values.
func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, v...)
	}
	return string(b)
}

// Registry holds a set of metric families and exposes them as Prometheus
// text. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	families []*family // maintained in name order; read under mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register installs a family, panicking on a duplicate name: instruments
// are created once at construction time, so a collision is a programming
// error, not a runtime condition.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[f.name]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", f.name))
	}
	r.byName[f.name] = f
	i := sort.Search(len(r.families), func(i int) bool { return r.families[i].name >= f.name })
	r.families = append(r.families, nil)
	copy(r.families[i+1:], r.families[i:])
	r.families[i] = f
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// newFamily builds and registers a family.
func (r *Registry) newFamily(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		byKey:  make(map[string]*series),
	}
	if kind == kindHistogram {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bucket bounds must be strictly ascending", name))
			}
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	r.register(f)
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.newFamily(name, help, kindCounter, nil, nil).get(nil).c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.newFamily(name, help, kindGauge, nil, nil).get(nil).g
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.newFamily(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.newFamily(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.get(labelValues).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family with shared, ascending
// bucket upper bounds (+Inf is implicit). With no labels, With() is the
// family's one unlabeled histogram.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.newFamily(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).h }
