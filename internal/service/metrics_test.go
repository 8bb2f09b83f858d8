package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// scrape fetches /metricsz and returns the exposition body.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status = %d; want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metricsz Content-Type = %q; want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metricsz: %v", err)
	}
	return string(body)
}

// mustContainLine asserts the exposition carries an exact sample line.
func mustContainLine(t *testing.T, exposition, line string) {
	t.Helper()
	if !strings.Contains(exposition, line+"\n") {
		t.Errorf("exposition missing %q; got:\n%s", line, exposition)
	}
}

// TestMetricszAfterKnownSequence drives a known request sequence and
// asserts the exact counter and histogram values it must produce: two
// identical dimension requests (one cache miss, one hit), one invalid
// request (400), one oversized body (413, its own counter — not "shed"),
// and one healthz probe.
func TestMetricszAfterKnownSequence(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	body := `{"rate":"1024 kbps","goal":` + goalJSON + `}`
	for i := 0; i < 2; i++ {
		if status, out := post(t, srv, "/v1/dimension", body); status != http.StatusOK {
			t.Fatalf("dimension status = %d, body %s", status, out)
		}
	}
	if status, _ := post(t, srv, "/v1/dimension", `{"rate":"not a rate"}`); status != http.StatusBadRequest {
		t.Fatalf("invalid dimension status = %d; want 400", status)
	}
	oversized := `{"rate":"` + strings.Repeat(" ", maxBodyBytes) + `"}`
	if status, _ := post(t, srv, "/v1/dimension", oversized); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized dimension status = %d; want 413", status)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	got := scrape(t, srv)
	mustContainLine(t, got, `memsd_http_requests_total{endpoint="/healthz",code="2xx"} 1`)
	mustContainLine(t, got, `memsd_http_requests_total{endpoint="/v1/dimension",code="2xx"} 2`)
	mustContainLine(t, got, `memsd_http_requests_total{endpoint="/v1/dimension",code="4xx"} 2`)
	mustContainLine(t, got, `memsd_http_request_duration_seconds_count{endpoint="/v1/dimension"} 4`)
	mustContainLine(t, got, `memsd_http_request_duration_seconds_bucket{endpoint="/v1/dimension",le="+Inf"} 4`)
	// The identical second request is the hit; the first is the one miss.
	mustContainLine(t, got, `memsd_cache_hits_total 1`)
	mustContainLine(t, got, `memsd_cache_misses_total 1`)
	mustContainLine(t, got, `memsd_requests_served_total 2`)
	mustContainLine(t, got, `memsd_requests_failed_total 1`)
	mustContainLine(t, got, `memsd_http_in_flight_requests 0`)
	mustContainLine(t, got, `memsd_compute_in_flight 0`)
	mustContainLine(t, got, `memsd_cache_entries 1`)
	// The oversized body counts as a 413, never as load shedding; the
	// traffic-control families exist (at zero) without any limits
	// configured.
	mustContainLine(t, got, `memsd_http_body_too_large_total 1`)
	mustContainLine(t, got, `memsd_http_requests_shed_total 0`)
	mustContainLine(t, got, `memsd_http_rate_limited_total{reason="api_key"} 0`)
	mustContainLine(t, got, `memsd_http_rate_limited_total{reason="ip"} 0`)
	mustContainLine(t, got, `memsd_http_inflight_limit 0`)
	mustContainLine(t, got, `memsd_http_queue_depth 0`)
	// Latency histograms exist for every endpoint from the first scrape,
	// traffic or not.
	for _, endpoint := range []string{"/statsz", "/v1/sweep", "/v1/simulate", "/v1/multisim", "/v1/breakeven", "/v1/multistream"} {
		mustContainLine(t, got, `memsd_http_request_duration_seconds_count{endpoint="`+endpoint+`"} 0`)
	}

	if q := (&Service{met: newServiceMetrics()}).LatencyQuantile("/v1/dimension", 0.5); q == q { // NaN check without math import
		t.Errorf("latency quantile of an idle service = %v; want NaN", q)
	}
}

// TestMetricszDoubleScrapeByteIdentical is the exposition determinism
// contract at the service level: scraping an idle service twice in a row
// returns byte-identical bodies (which requires /metricsz not to count
// itself).
func TestMetricszDoubleScrapeByteIdentical(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	// Put some traffic on the books first so the comparison is not between
	// two all-zero scrapes.
	post(t, srv, "/v1/dimension", `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	first := scrape(t, srv)
	second := scrape(t, srv)
	if first != second {
		t.Errorf("two idle scrapes differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestMetricszConcurrentWithTraffic scrapes while requests are in flight;
// under -race this checks the whole instrumented path for data races.
func TestMetricszConcurrentWithTraffic(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := http.Post(srv.URL+"/v1/dimension", "application/json",
					strings.NewReader(`{"rate":"1024 kbps","goal":`+goalJSON+`}`))
				if err != nil {
					t.Errorf("dimension: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Get(srv.URL + "/metricsz")
				if err != nil {
					t.Errorf("metricsz: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	got := scrape(t, srv)
	mustContainLine(t, got, `memsd_http_requests_total{endpoint="/v1/dimension",code="2xx"} 12`)
}

// TestAccessLog checks the structured request log: one record per request
// with the request ID honored from X-Request-ID (and echoed in the
// response), endpoint, status, latency, cache outcome and worker bound.
func TestAccessLog(t *testing.T) {
	svc := New(Config{})
	var buf bytes.Buffer
	mu := &sync.Mutex{}
	logger := slog.New(slog.NewJSONHandler(lockedWriter{mu: mu, w: &buf}, nil))
	srv := httptest.NewServer(AccessLog(logger, svc.Handler()))
	defer srv.Close()

	body := `{"rate":"1024 kbps","goal":` + goalJSON + `}`
	req, err := http.NewRequest("POST", srv.URL+"/v1/dimension", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Errorf("X-Request-ID echo = %q; want test-req-42", got)
	}

	// Second identical request without a client ID: generated ID, cache hit.
	resp, err = http.Post(srv.URL+"/v1/dimension", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if generated == "" {
		t.Error("no generated X-Request-ID on the response")
	}

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d; want 2:\n%s", len(lines), buf.String())
	}
	type record struct {
		Msg      string  `json:"msg"`
		ID       string  `json:"id"`
		Method   string  `json:"method"`
		Endpoint string  `json:"endpoint"`
		Status   int     `json:"status"`
		Bytes    int     `json:"bytes"`
		Duration int64   `json:"duration"`
		Cache    string  `json:"cache"`
		Workers  float64 `json:"workers"`
	}
	var first, second record
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("decode first record: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("decode second record: %v", err)
	}
	if first.Msg != "request" || first.ID != "test-req-42" || first.Method != "POST" ||
		first.Endpoint != "/v1/dimension" || first.Status != 200 {
		t.Errorf("first record = %+v; want request test-req-42 POST /v1/dimension 200", first)
	}
	if first.Cache != "miss" || second.Cache != "hit" {
		t.Errorf("cache outcomes = %q, %q; want miss then hit", first.Cache, second.Cache)
	}
	if first.Workers != 1 {
		t.Errorf("workers = %v; want 1 for a single-rate dimensioning", first.Workers)
	}
	if first.Bytes <= 0 || first.Duration <= 0 {
		t.Errorf("bytes/duration = %d/%d; want positive", first.Bytes, first.Duration)
	}
	if second.ID != generated {
		t.Errorf("second record id = %q; want the echoed generated ID %q", second.ID, generated)
	}
}

// lockedWriter serializes concurrent slog writes in tests.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestRequestIDSanitized checks that hostile X-Request-ID values are never
// echoed: control characters (header/log injection), oversized values and
// non-ASCII all fall back to a generated ID, while a sane client ID is
// honored byte for byte.
func TestRequestIDSanitized(t *testing.T) {
	svc := New(Config{})
	var buf bytes.Buffer
	mu := &sync.Mutex{}
	logger := slog.New(slog.NewJSONHandler(lockedWriter{mu: mu, w: &buf}, nil))
	// The handler is driven directly: Go's HTTP client refuses to even send
	// control bytes in headers, but a hostile peer speaking raw TCP is not
	// so polite, and the server must not rely on client manners.
	h := AccessLog(logger, svc.Handler())

	hostile := []string{
		"evil\nid=injected",       // newline: log/header injection
		"evil\x00id",              // control byte
		"tab\tseparated",          // control byte
		strings.Repeat("x", 4096), // oversized
		"jalape\xc3\xb1o",         // non-ASCII
		"spaced out",              // embedded space
	}
	for _, id := range hostile {
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header["X-Request-Id"] = []string{id} // canonical key, no Set validation
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		echoed := rec.Header().Get("X-Request-ID")
		if echoed == id {
			t.Errorf("hostile X-Request-ID %q echoed verbatim", id)
		}
		if len(echoed) != 16 || !validRequestID(echoed) {
			t.Errorf("fallback ID for %q = %q; want a 16-hex generated ID", id, echoed)
		}
	}
	// A maximum-length clean ID is still honored.
	sane := strings.Repeat("a", maxRequestIDBytes)
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", sane)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != sane {
		t.Errorf("sane maximum-length ID not echoed (got %q)", got)
	}

	// No hostile byte ever reached the structured log.
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	// Every needle holds a letter outside 0-9a-f, so a generated 16-hex
	// fallback ID can never contain one by chance.
	for _, needle := range []string{"evil", "injected", "jalape", "spaced"} {
		if strings.Contains(logged, needle) {
			t.Errorf("hostile ID fragment %q leaked into the access log", needle)
		}
	}
}

// TestAccessLogNilLogger checks the nil-logger fast path returns the
// handler unchanged.
func TestAccessLogNilLogger(t *testing.T) {
	h := http.NewServeMux()
	if got := AccessLog(nil, h); got != http.Handler(h) {
		t.Error("AccessLog(nil, h) should return h unchanged")
	}
}

// TestStatszUptimeAndPerShard checks the extended /statsz payload: the new
// uptime and per-shard fields ride along without disturbing the existing
// ones.
func TestStatszUptimeAndPerShard(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	post(t, srv, "/v1/dimension", `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if st.Served != 1 {
		t.Errorf("served = %d; want 1", st.Served)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v; want > 0", st.UptimeSeconds)
	}
	if len(st.Cache.PerShard) != st.Cache.Shards {
		t.Fatalf("per-shard entries = %d; want %d", len(st.Cache.PerShard), st.Cache.Shards)
	}
	entries := 0
	for _, ss := range st.Cache.PerShard {
		entries += ss.Entries
	}
	if entries != st.Cache.Entries || entries != 1 {
		t.Errorf("per-shard entries sum = %d; want the aggregate %d (= 1)", entries, st.Cache.Entries)
	}
}
