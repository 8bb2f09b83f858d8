package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// populated builds a registry exercising every instrument kind, labeled and
// unlabeled, including label values that need escaping.
func populated() *Registry {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Total requests.")
	c.Add(41)
	c.Inc()
	g := r.Gauge("test_in_flight", "Requests currently in flight.")
	g.Set(3)
	g.Dec()
	cv := r.CounterVec("test_http_requests_total", "HTTP requests by endpoint and code.", "endpoint", "code")
	cv.With("/v1/dimension", "2xx").Add(7)
	cv.With("/v1/dimension", "4xx").Inc()
	cv.With("/healthz", "2xx").Add(2)
	gv := r.GaugeVec("test_shard_entries", "Entries per cache shard.", "shard")
	gv.With("0").Set(5)
	gv.With("10").Set(2)
	gv.With("2").Set(0.5)
	h := r.HistogramVec("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1}).With()
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2.5)
	hv := r.HistogramVec("test_endpoint_seconds", `Latency with "quoted" help \ and all.`, []float64{0.25, 0.5}, "endpoint")
	hv.With(`odd"label`).Observe(0.3)
	return r
}

// golden is the exact exposition of populated(): families in name order,
// series in label order, cumulative histogram buckets, le last.
const golden = `# HELP test_endpoint_seconds Latency with "quoted" help \\ and all.
# TYPE test_endpoint_seconds histogram
test_endpoint_seconds_bucket{endpoint="odd\"label",le="0.25"} 0
test_endpoint_seconds_bucket{endpoint="odd\"label",le="0.5"} 1
test_endpoint_seconds_bucket{endpoint="odd\"label",le="+Inf"} 1
test_endpoint_seconds_sum{endpoint="odd\"label"} 0.3
test_endpoint_seconds_count{endpoint="odd\"label"} 1
# HELP test_http_requests_total HTTP requests by endpoint and code.
# TYPE test_http_requests_total counter
test_http_requests_total{endpoint="/healthz",code="2xx"} 2
test_http_requests_total{endpoint="/v1/dimension",code="2xx"} 7
test_http_requests_total{endpoint="/v1/dimension",code="4xx"} 1
# HELP test_in_flight Requests currently in flight.
# TYPE test_in_flight gauge
test_in_flight 2
# HELP test_latency_seconds Request latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 2
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="1"} 3
test_latency_seconds_bucket{le="+Inf"} 4
test_latency_seconds_sum 2.56
test_latency_seconds_count 4
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 42
# HELP test_shard_entries Entries per cache shard.
# TYPE test_shard_entries gauge
test_shard_entries{shard="0"} 5
test_shard_entries{shard="10"} 2
test_shard_entries{shard="2"} 0.5
`

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return buf.String()
}

func TestExpositionGolden(t *testing.T) {
	got := expose(t, populated())
	if got != golden {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	r := populated()
	first := expose(t, r)
	second := expose(t, r)
	if first != second {
		t.Errorf("two scrapes of an unchanged registry differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestExpositionOrderIndependent checks that registration and series
// creation order never leaks into the output: the same logical contents
// built in reverse order scrape byte-identically.
func TestExpositionOrderIndependent(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("test_shard_entries", "Entries per cache shard.", "shard")
	gv.With("2").Set(0.5)
	gv.With("10").Set(2)
	gv.With("0").Set(5)
	cv := r.CounterVec("test_http_requests_total", "HTTP requests by endpoint and code.", "endpoint", "code")
	cv.With("/v1/dimension", "4xx").Inc()
	cv.With("/healthz", "2xx").Add(2)
	cv.With("/v1/dimension", "2xx").Add(7)

	want := `# HELP test_http_requests_total HTTP requests by endpoint and code.
# TYPE test_http_requests_total counter
test_http_requests_total{endpoint="/healthz",code="2xx"} 2
test_http_requests_total{endpoint="/v1/dimension",code="2xx"} 7
test_http_requests_total{endpoint="/v1/dimension",code="4xx"} 1
# HELP test_shard_entries Entries per cache shard.
# TYPE test_shard_entries gauge
test_shard_entries{shard="0"} 5
test_shard_entries{shard="10"} 2
test_shard_entries{shard="2"} 0.5
`
	if got := expose(t, r); got != want {
		t.Errorf("reverse-order build scrapes differently:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestConcurrentScrapeAndIncrement drives increments, series creation and
// scrapes from many goroutines at once; run under -race this is the data
// race check for the whole registry.
func TestConcurrentScrapeAndIncrement(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	g := r.Gauge("test_gauge", "t")
	cv := r.CounterVec("test_by_label", "t", "l")
	h := r.HistogramVec("test_hist", "t", []float64{0.5, 1, 2}).With()

	const (
		writers    = 8
		iterations = 500
	)
	var wg sync.WaitGroup
	labels := []string{"a", "b", "c", "d"}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				c.Inc()
				g.Add(1)
				cv.With(labels[(w+i)%len(labels)]).Inc()
				h.Observe(float64(i%3) + 0.25)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var buf bytes.Buffer
				if err := r.WriteText(&buf); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const n = writers * iterations
	if got := c.Value(); got != n {
		t.Errorf("counter = %d; want %d", got, n)
	}
	if got := g.Value(); got != n {
		t.Errorf("gauge = %v; want %d", got, n)
	}
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %d; want %d", got, n)
	}
	var byLabel uint64
	for _, l := range labels {
		byLabel += cv.With(l).Value()
	}
	if byLabel != n {
		t.Errorf("labeled counters sum = %d; want %d", byLabel, n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_q", "t", []float64{0.01, 0.1, 1}).With()
	if q := h.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram quantile = %v; want NaN", q)
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05)
	}
	h.Observe(5)
	if q := h.Quantile(0.5); q != 0.01 {
		t.Errorf("p50 = %v; want 0.01", q)
	}
	if q := h.Quantile(0.95); q != 0.1 {
		t.Errorf("p95 = %v; want 0.1", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 = %v; want +Inf", q)
	}
}

func TestHandlerServesText(t *testing.T) {
	r := populated()
	synced := false
	srv := httptest.NewServer(Handler(r, func() { synced = true }))
	defer srv.Close()
	resp := httptest.NewRecorder()
	Handler(r, func() { synced = true }).ServeHTTP(resp, httptest.NewRequest("GET", "/metricsz", nil))
	if !synced {
		t.Error("sync hook did not run before the scrape")
	}
	if ct := resp.Header().Get("Content-Type"); ct != TextContentType {
		t.Errorf("Content-Type = %q; want %q", ct, TextContentType)
	}
	if body := resp.Body.String(); body != golden {
		t.Errorf("handler body mismatch:\n--- got ---\n%s", body)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("test_dup", "t")
	mustPanic("duplicate name", func() { r.Gauge("test_dup", "t") })
	mustPanic("bad metric name", func() { r.Counter("0bad", "t") })
	mustPanic("bad label name", func() { r.CounterVec("test_lbl", "t", "bad-label") })
	mustPanic("unsorted bounds", func() { r.HistogramVec("test_h", "t", []float64{1, 0.5}).With() })
	mustPanic("no bounds", func() { r.HistogramVec("test_h2", "t", nil).With() })
	cv := r.CounterVec("test_arity", "t", "a", "b")
	mustPanic("label arity", func() { cv.With("only-one") })
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_esc", "line one\nline two \\ done", "l")
	cv.With("a\nb\"c\\d").Inc()
	out := expose(t, r)
	if !strings.Contains(out, `# HELP test_esc line one\nline two \\ done`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_esc{l="a\nb\"c\\d"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}
