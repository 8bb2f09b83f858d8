package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// newTestServer starts an httptest server over a fresh service.
func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, srv
}

// post sends a JSON body and returns status plus response bytes.
func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp.StatusCode, out
}

const goalJSON = `{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"7 years"}`

func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q; want application/json", ct)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz body: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q; want ok", h.Status)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v; want >= 0", h.UptimeSeconds)
	}
	if h.Version == "" {
		t.Error("version missing (debug.ReadBuildInfo should always yield one)")
	}
}

func TestDimensionEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/dimension", `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp DimensionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Feasible {
		t.Fatal("the paper's Fig. 3b goal must be feasible at 1024 kbps")
	}
	if resp.BufferBits <= 0 {
		t.Errorf("buffer bits = %v; want positive", resp.BufferBits)
	}
	if len(resp.Requirements) != 4 {
		t.Errorf("requirements = %d; want 4", len(resp.Requirements))
	}
	if resp.BreakEvenBits <= 0 || resp.BreakEvenBits >= resp.BufferBits {
		t.Errorf("break-even %v should be positive and below the dimensioned buffer %v (the paper's headline gap)",
			resp.BreakEvenBits, resp.BufferBits)
	}
}

func TestDimensionImprovedDeviceDiffers(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	_, def := post(t, srv, "/v1/dimension", `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	_, imp := post(t, srv, "/v1/dimension", `{"device":{"name":"improved"},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	if bytes.Equal(def, imp) {
		t.Error("default and improved devices must not share a cache entry")
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/sweep",
		`{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":16}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Points) != 16 {
		t.Fatalf("points = %d; want 16", len(resp.Points))
	}
	if len(resp.Regimes) == 0 {
		t.Error("sweep should segment into at least one regime")
	}
	if len(resp.DominanceShare) == 0 {
		t.Error("dominance share missing")
	}
}

func TestSimulateEndpointWithReplicas(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/simulate",
		`{"rate":"1024 kbps","buffer":"64 KiB","duration":"10 s","replicas":3}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Runs) != 3 {
		t.Fatalf("runs = %d; want 3", len(resp.Runs))
	}
	for i, run := range resp.Runs {
		if run.Seed != uint64(1+i) {
			t.Errorf("run %d seed = %d; want %d", i, run.Seed, 1+i)
		}
		if run.RefillCycles <= 0 {
			t.Errorf("run %d refill cycles = %d; want positive", i, run.RefillCycles)
		}
		if run.Underruns != 0 {
			t.Errorf("run %d underruns = %d; a provisioned CBR stream must not underrun", i, run.Underruns)
		}
		// A writing CBR stream wears both components, so the projections
		// are finite and present (nil would mean an unbounded projection).
		if run.SpringsLifetimeYears == nil || *run.SpringsLifetimeYears <= 0 {
			t.Errorf("run %d springs projection = %v; want a positive finite value", i, run.SpringsLifetimeYears)
		}
		if run.ProbesLifetimeYears == nil || *run.ProbesLifetimeYears <= 0 {
			t.Errorf("run %d probes projection = %v; want a positive finite value", i, run.ProbesLifetimeYears)
		}
	}
}

// TestSimulateHighRateAnswers is the service-level regression for the refill
// livelock: a 40 Mbps CBR stream through 64 KiB once left the simulator
// stepping a refill by sub-ulp amounts forever, so the request never
// answered and kept its admission slot and a CPU. The handler runs on its own
// goroutine so a regression fails here instead of hanging the suite.
func TestSimulateHighRateAnswers(t *testing.T) {
	svc := New(Config{Timeout: 2 * time.Second})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"rate":"40 Mbps","buffer":"64 KiB","duration":"30 s"}`))
	done := make(chan struct{})
	go func() {
		svc.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("/v1/simulate at 40 Mbps did not answer within 10 s")
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s; want 200", rec.Code, rec.Body)
	}
}

func TestBreakEvenEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/breakeven", `{"rate":"1024 kbps"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp BreakEvenResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.MEMSBits <= 0 || resp.DiskBits <= 0 {
		t.Fatalf("break-even buffers must be positive: %+v", resp)
	}
	if resp.DiskOverMEMS < 100 {
		t.Errorf("disk/MEMS ratio = %.1f; the paper reports a 3-orders-of-magnitude gap", resp.DiskOverMEMS)
	}
}

func TestMultiStreamEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/multistream",
		`{"goal":`+goalJSON+`,"streams":[
			{"name":"record","rate":"768 kbps","write_fraction":1},
			{"name":"play","rate":"512 kbps","write_fraction":0}]}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp MultiStreamResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !resp.Feasible {
		t.Fatalf("two-stream mix should be feasible: %s", body)
	}
	if len(resp.Buffers) != 2 {
		t.Fatalf("buffers = %d; want 2", len(resp.Buffers))
	}
	if resp.Buffers[0].Name != "record" || resp.Buffers[1].Name != "play" {
		t.Errorf("buffer order %q, %q; want request order", resp.Buffers[0].Name, resp.Buffers[1].Name)
	}
	if resp.TotalBufferBits <= resp.Buffers[0].BufferBits {
		t.Error("total buffer should exceed any single stream's buffer")
	}
}

func TestValidationFailures(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"unknown field", "/v1/dimension", `{"rate":"1024 kbps","goal":` + goalJSON + `,"bogus":1}`},
		{"malformed json", "/v1/dimension", `{"rate":`},
		{"trailing garbage", "/v1/dimension", `{"rate":"1024 kbps","goal":` + goalJSON + `}{}`},
		{"missing rate", "/v1/dimension", `{"goal":` + goalJSON + `}`},
		{"bad rate unit", "/v1/dimension", `{"rate":"10 parsecs","goal":` + goalJSON + `}`},
		{"negative rate", "/v1/dimension", `{"rate":-5,"goal":` + goalJSON + `}`},
		{"energy goal out of range", "/v1/dimension", `{"rate":"1024 kbps","goal":{"energy_saving":1.5,"capacity_utilisation":0.88,"lifetime":"7 years"}}`},
		{"unknown device", "/v1/dimension", `{"device":{"name":"quantum"},"rate":"1024 kbps","goal":` + goalJSON + `}`},
		{"sweep inverted range", "/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"4096 kbps","max_rate":"32 kbps","points":8}`},
		{"sweep too few points", "/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"4096 kbps","points":1}`},
		{"sweep too many points", "/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"4096 kbps","points":100000}`},
		{"simulate missing buffer", "/v1/simulate", `{"rate":"1024 kbps"}`},
		{"simulate bad stream kind", "/v1/simulate", `{"rate":"1024 kbps","buffer":"64 KiB","stream":"chaos"}`},
		{"simulate too many replicas", "/v1/simulate", `{"rate":"1024 kbps","buffer":"64 KiB","replicas":10000}`},
		{"simulate duration over cap", "/v1/simulate", `{"rate":"1024 kbps","buffer":"64 KiB","duration":"100 years"}`},
		{"sweep negative workers", "/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"4096 kbps","points":8,"workers":-4}`},
		{"simulate bad best effort", "/v1/simulate", `{"rate":"1024 kbps","buffer":"64 KiB","best_effort":1.5}`},
		{"simulate rate above media rate", "/v1/simulate", `{"rate":"100 Gbps","buffer":"64 KiB"}`},
		{"breakeven missing rate", "/v1/breakeven", `{}`},
		{"multistream no streams", "/v1/multistream", `{"goal":` + goalJSON + `,"streams":[]}`},
		{"multistream bad write fraction", "/v1/multistream", `{"goal":` + goalJSON + `,"streams":[{"name":"a","rate":"768 kbps","write_fraction":2}]}`},
		{"multistream inadmissible mix", "/v1/multistream", `{"goal":` + goalJSON + `,"streams":[{"name":"a","rate":"300 Mbps","write_fraction":1}]}`},
		// Rates the analytical model rejects are input errors, as they are on
		// /v1/simulate and /v1/multistream, not server failures.
		{"dimension rate below media rate without admissible buffer", "/v1/dimension", `{"rate":"101 Mbps","goal":` + goalJSON + `}`},
		{"dimension rate at media rate", "/v1/dimension", `{"rate":"102.4 Mbps","goal":` + goalJSON + `}`},
		{"dimension rate above media rate", "/v1/dimension", `{"rate":"150 Mbps","goal":` + goalJSON + `}`},
		{"sweep max rate without admissible buffer", "/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"101 Mbps","points":8}`},
		{"sweep max rate above media rate", "/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"200 Mbps","points":8}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := post(t, srv, c.path, c.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s; want 400", status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("error body %s must carry an error message", body)
			}
		})
	}
}

func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	// The 2 MiB value sits in a known field so the decoder hits the byte
	// limit mid-token rather than failing on an unknown key first.
	big := `{"rate":"` + strings.Repeat("x", 2<<20) + `","goal":` + goalJSON + `}`
	status, body := post(t, srv, "/v1/dimension", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %.200s; want 413", status, body)
	}
}

func TestImprovedDeviceSpecMatchesLibraryDefinition(t *testing.T) {
	dev, err := DeviceSpec{Name: "improved"}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := device.ImprovedMEMS(); dev != want {
		t.Errorf("service improved device %+v diverges from device.ImprovedMEMS %+v", dev, want)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/dimension")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/dimension status = %d; want 405", resp.StatusCode)
	}
}

func TestDeadlineAbortsSweep(t *testing.T) {
	_, srv := newTestServer(t, Config{Timeout: time.Nanosecond})
	status, body := post(t, srv, "/v1/sweep",
		`{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":256}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s; want 504", status, body)
	}
}

func TestDeadlineAbortsMultiStream(t *testing.T) {
	svc := New(Config{Timeout: time.Nanosecond})
	_, err := svc.MultiStream(context.Background(), MultiStreamRequest{
		Goal:    GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "7 years"},
		Streams: []MultiStreamSpec{{Name: "rec", Rate: "768 kbps", WriteFraction: 1}},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want deadline exceeded", err)
	}
}

func TestCacheHitReturnsByteIdenticalBody(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	body := `{"rate":"1024 kbps","goal":` + goalJSON + `}`
	status1, first := post(t, srv, "/v1/dimension", body)
	status2, second := post(t, srv, "/v1/dimension", body)
	if status1 != http.StatusOK || status2 != http.StatusOK {
		t.Fatalf("statuses %d, %d; want 200, 200", status1, status2)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit body differs:\n%s\n%s", first, second)
	}
	st := svc.Stats()
	if st.Cache.Hits == 0 {
		t.Errorf("stats = %+v; the second request must hit the cache", st.Cache)
	}
	if st.Served != 2 {
		t.Errorf("served = %d; want 2", st.Served)
	}
}

func TestEquivalentSpellingsShareACacheEntry(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	// 1024 kbps spelled three ways: the fingerprint is computed on the
	// parsed request, not the raw body.
	_, a := post(t, srv, "/v1/dimension", `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	_, b := post(t, srv, "/v1/dimension", `{"rate":1024000,"goal":`+goalJSON+`}`)
	_, c := post(t, srv, "/v1/dimension", `{"device":{"name":"default"},"rate":"1024kbit/s","goal":`+goalJSON+`}`)
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatal("equivalent spellings must return byte-identical cached bodies")
	}
	if st := svc.CacheStats(); st.Entries != 1 {
		t.Errorf("entries = %d; want 1 shared entry", st.Entries)
	}
}

func TestWorkerCountExcludedFromFingerprint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	req := `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"4096 kbps","points":8`
	_, seq := post(t, srv, "/v1/sweep", req+`,"workers":1}`)
	_, par := post(t, srv, "/v1/sweep", req+`,"workers":4}`)
	if !bytes.Equal(seq, par) {
		t.Fatal("worker bound must not change the response bytes")
	}
}

func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		svc, srv := newTestServer(t, Config{MaxWorkers: workers})
		body := `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"4096 kbps","points":24}`
		const clients = 8
		results := make([][]byte, clients)
		var wg sync.WaitGroup
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				results[i], _ = io.ReadAll(resp.Body)
			}(i)
		}
		wg.Wait()
		for i := 1; i < clients; i++ {
			if !bytes.Equal(results[0], results[i]) {
				t.Fatalf("workers=%d: client %d response differs from client 0", workers, i)
			}
		}
		st := svc.CacheStats()
		if st.Entries != 1 {
			t.Errorf("workers=%d: entries = %d; want 1", workers, st.Entries)
		}
		if st.Misses != 1 {
			t.Errorf("workers=%d: misses = %d; only the flight leader is a miss, waiters count as hits", workers, st.Misses)
		}
		if st.Hits != clients-1 {
			t.Errorf("workers=%d: hits = %d; want %d (every non-leader client)", workers, st.Hits, clients-1)
		}
	}
}

func TestStatszEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	post(t, srv, "/v1/breakeven", `{"rate":"1024 kbps"}`)
	post(t, srv, "/v1/breakeven", `{"rate":"1024 kbps"}`)
	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if st.Served != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("stats = %+v; want 2 served, 1 hit, 1 miss", st)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d; want 0 at rest", st.InFlight)
	}
}

func TestLibraryPathSharesCacheWithHTTP(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	typedResp, err := svc.Dimension(context.Background(), DimensionRequest{
		Rate: "1024 kbps",
		Goal: GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "7 years"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, httpBody := post(t, srv, "/v1/dimension", `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	var httpResp DimensionResponse
	if err := json.Unmarshal(httpBody, &httpResp); err != nil {
		t.Fatal(err)
	}
	if typedResp.BufferBits != httpResp.BufferBits || typedResp.Dominant != httpResp.Dominant {
		t.Error("library and HTTP answers diverge")
	}
	if st := svc.CacheStats(); st.Hits != 1 {
		t.Errorf("hits = %d; the HTTP request must reuse the library call's entry", st.Hits)
	}
}

func TestNaNInputsRejectedAsValidation(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	nan := math.NaN()
	var verr *ValidationError
	if _, err := svc.Dimension(ctx, DimensionRequest{
		Rate: "1024 kbps",
		Goal: GoalSpec{EnergySaving: nan, CapacityUtilisation: 0.88, Lifetime: "7 years"},
	}); !errors.As(err, &verr) {
		t.Errorf("NaN energy goal: err = %v; want a ValidationError", err)
	}
	if _, err := svc.Simulate(ctx, SimulateRequest{
		Rate: "1024 kbps", Buffer: "64 KiB", BestEffort: &nan,
	}); !errors.As(err, &verr) {
		t.Errorf("NaN best effort: err = %v; want a ValidationError", err)
	}
	if _, err := svc.Dimension(ctx, DimensionRequest{
		Rate: "1024 kbps",
		Goal: GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "NaN"},
	}); !errors.As(err, &verr) {
		t.Errorf("NaN lifetime string: err = %v; want a ValidationError", err)
	}
	if _, err := svc.MultiStream(ctx, MultiStreamRequest{
		Goal:    GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "7 years"},
		Streams: []MultiStreamSpec{{Name: "a", Rate: "768 kbps", WriteFraction: nan}},
	}); !errors.As(err, &verr) {
		t.Errorf("NaN write fraction: err = %v; want a ValidationError", err)
	}
}

func TestQuantityRejectsNonScalar(t *testing.T) {
	var q Quantity
	if err := json.Unmarshal([]byte(`{"a":1}`), &q); err == nil {
		t.Error("object must not unmarshal into a Quantity")
	}
	if err := json.Unmarshal([]byte(`[1]`), &q); err == nil {
		t.Error("array must not unmarshal into a Quantity")
	}
	if err := json.Unmarshal([]byte(`3.5`), &q); err != nil || q != "3.5" {
		t.Errorf("number: q=%q err=%v; want 3.5, nil", q, err)
	}
}

// TestQuantityStringsDecodeAsJSON checks the plain-string shortcut of
// Quantity.UnmarshalJSON against encoding/json: every string literal, with
// or without escapes, control bytes or invalid UTF-8, decodes or fails as
// json.Unmarshal has it.
func TestQuantityStringsDecodeAsJSON(t *testing.T) {
	for _, lit := range []string{
		`"1024 kbps"`, `""`, `"7 yr"`, `"10 µs"`, `"1 kbps"`, `"a\"b"`, `"\\"`,
		"\"\xff kbps\"", "\"a\tb\"", `"abc`, `"a"b"`, `"`,
	} {
		var q Quantity
		err := q.UnmarshalJSON([]byte(lit))
		var want string
		wantErr := json.Unmarshal([]byte(lit), &want)
		if (err == nil) != (wantErr == nil) || err == nil && string(q) != want {
			t.Errorf("%s: got %q, %v; json.Unmarshal gives %q, %v", lit, q, err, want, wantErr)
		}
	}
}

// TestSimulateDiskDevice exercises the pluggable-backend path of
// /v1/simulate: "disk" selects the 1.8-inch baseline, which needs a
// megabyte-scale buffer and reports no MEMS wear projections.
func TestSimulateDiskDevice(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/simulate",
		`{"device":{"name":"disk"},"rate":"1024 kbps","buffer":"8 MB","duration":"120s"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(resp.Runs))
	}
	run := resp.Runs[0]
	if run.Underruns != 0 {
		t.Errorf("disk run underran %d times through an 8 MB buffer", run.Underruns)
	}
	if run.RefillCycles == 0 {
		t.Error("disk run completed no refill cycles")
	}
	if run.SpringsLifetimeYears != nil || run.ProbesLifetimeYears != nil {
		t.Error("disk runs must omit the MEMS wear projections")
	}
	// The same shape against the MEMS default must NOT share a cache entry:
	// the backend kind is fingerprinted.
	status, body = post(t, srv, "/v1/simulate",
		`{"device":{"name":"mems"},"rate":"1024 kbps","buffer":"8 MB","duration":"120s"}`)
	if status != http.StatusOK {
		t.Fatalf("mems status = %d, body %s", status, body)
	}
	var memsResp SimulateResponse
	if err := json.Unmarshal(body, &memsResp); err != nil {
		t.Fatal(err)
	}
	if memsResp.Runs[0].EnergyPerBitJoules == run.EnergyPerBitJoules {
		t.Error("mems and disk runs returned identical energy — fingerprint collision?")
	}
	if memsResp.Runs[0].SpringsLifetimeYears == nil {
		t.Error("mems runs must keep the wear projections")
	}
}

// TestSimulateDeviceValidation locks in the validated device field: unknown
// names, disk-on-analytical-endpoints and disk durability overrides are all
// rejected with 400s.
func TestSimulateDeviceValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name, path, body, wantErr string
	}{
		{"unknown device", "/v1/simulate",
			`{"device":{"name":"floppy"},"rate":"1024 kbps","buffer":"64 KiB"}`, "unknown device"},
		{"disk durability overrides", "/v1/simulate",
			`{"device":{"name":"disk","probe_write_cycles":200},"rate":"1024 kbps","buffer":"8 MB"}`,
			"durability overrides do not apply"},
		{"disk on dimension", "/v1/dimension",
			`{"device":{"name":"disk"},"rate":"1024 kbps","goal":` + goalJSON + `}`,
			"only supported by simulate"},
		{"disk on sweep", "/v1/sweep",
			`{"device":{"name":"disk"},"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"64 kbps","points":2}`,
			"only supported by simulate"},
	}
	for _, c := range cases {
		status, body := post(t, srv, c.path, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, status, body)
			continue
		}
		if !strings.Contains(string(body), c.wantErr) {
			t.Errorf("%s: body %s does not mention %q", c.name, body, c.wantErr)
		}
	}
}

// TestSimulateMEMSAlias locks in that "mems" and "default" are the same
// device and therefore share a cache entry (byte-identical bodies).
func TestSimulateMEMSAlias(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	_, a := post(t, srv, "/v1/simulate", `{"device":{"name":"mems"},"rate":"1024 kbps","buffer":"64 KiB","duration":"60s"}`)
	_, b := post(t, srv, "/v1/simulate", `{"device":{"name":"default"},"rate":"1024 kbps","buffer":"64 KiB","duration":"60s"}`)
	if !bytes.Equal(a, b) {
		t.Error("mems and default aliases returned different bodies")
	}
	if hits := svc.CacheStats().Hits; hits == 0 {
		t.Error("alias request should have hit the cache")
	}
}

// TestSimulateVideoEndpoint drives /v1/simulate with the frame-accurate
// video workload: a 200 with plausible playback metrics, and replicas
// re-seeded per run exactly like VBR.
func TestSimulateVideoEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/simulate",
		`{"rate":"1024 kbps","buffer":"64 KiB","duration":"30 s","stream":"video","replicas":2}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 2 {
		t.Fatalf("runs = %d; want 2", len(resp.Runs))
	}
	for i, run := range resp.Runs {
		if run.Seed != uint64(1+i) {
			t.Errorf("run %d seed = %d; want %d (replica re-seeding)", i, run.Seed, 1+i)
		}
		if run.RefillCycles <= 0 {
			t.Errorf("run %d completed no refill cycles", i)
		}
		if run.Underruns != 0 || run.RebufferEpisodes != 0 {
			t.Errorf("run %d stalled (%d underruns, %d episodes) through a 64 KiB buffer",
				i, run.Underruns, run.RebufferEpisodes)
		}
		if run.StartupDelaySeconds <= 0 {
			t.Errorf("run %d startup delay = %v; want positive", i, run.StartupDelaySeconds)
		}
	}
	// Two seed-varied replicas of a jittered trace must not be identical.
	if resp.Runs[0].EnergyPerBitJoules == resp.Runs[1].EnergyPerBitJoules {
		t.Error("video replicas returned identical energies — re-seeding lost?")
	}
}

// TestSimulateVideoEquivalentSpellingsShareACacheEntry locks in the
// canonical video fingerprint: an omitted video object, an empty one and
// one spelling out the library defaults are byte-identical cache hits.
func TestSimulateVideoEquivalentSpellingsShareACacheEntry(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	base := `"rate":"1024 kbps","buffer":"64 KiB","duration":"10 s","stream":"video"`
	_, a := post(t, srv, "/v1/simulate", `{`+base+`}`)
	_, b := post(t, srv, "/v1/simulate", `{`+base+`,"video":{}}`)
	_, c := post(t, srv, "/v1/simulate",
		`{`+base+`,"video":{"frame_rate":25,"gop_length":12,"ip_distance":3,"weight_i":5,"weight_p":3,"weight_b":1,"jitter":0.2}}`)
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatal("equivalent video spellings must return byte-identical cached bodies")
	}
	if st := svc.CacheStats(); st.Entries != 1 {
		t.Errorf("entries = %d; want 1 shared entry", st.Entries)
	}
	// A genuinely different GOP length must not share the entry.
	_, d := post(t, srv, "/v1/simulate", `{`+base+`,"video":{"gop_length":15}}`)
	if bytes.Equal(a, d) {
		t.Error("different GOP lengths shared a cache entry")
	}
	// An explicit zero jitter is a different workload than the 20 % default,
	// not a respelling of it.
	_, e := post(t, srv, "/v1/simulate", `{`+base+`,"video":{"jitter":0}}`)
	if bytes.Equal(a, e) {
		t.Error("explicit zero jitter shared the default-jitter cache entry")
	}
}

// TestSimulateTraceEndpoint drives /v1/simulate with an inline frame trace:
// a 200, byte-identical cache hits for equivalent spellings (unit strings
// and timestamp offsets), and strict field validation.
func TestSimulateTraceEndpoint(t *testing.T) {
	svc, srv := newTestServer(t, Config{})
	// Four 40 ms frames around 1 Mbps.
	frames := `[{"timestamp":0,"size":"6250bit","class":"I"},
		{"timestamp":"40ms","size":"4000bit"},
		{"timestamp":0.08,"size":"3000bit","class":"B"},
		{"timestamp":0.12,"size":"4500bit","class":"P"}]`
	status, body := post(t, srv, "/v1/simulate",
		`{"buffer":"64 KiB","duration":"10 s","stream":"trace","frames":`+frames+`}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Runs) != 1 || resp.Runs[0].RefillCycles == 0 {
		t.Fatalf("trace run produced no cycles: %s", body)
	}
	if resp.Runs[0].Underruns != 0 {
		t.Errorf("trace run underran %d times through a 64 KiB buffer", resp.Runs[0].Underruns)
	}
	// The same trace with second-spelled timestamps and a constant offset
	// must hit the same entry byte-identically.
	shifted := `[{"timestamp":"1s","size":"6250bit","class":"I"},
		{"timestamp":1.04,"size":"4000bit","class":"P"},
		{"timestamp":1.08,"size":"3000bit","class":"B"},
		{"timestamp":"1.12","size":"4500bit"}]`
	status, body2 := post(t, srv, "/v1/simulate",
		`{"buffer":"64 KiB","duration":"10 s","stream":"trace","frames":`+shifted+`}`)
	if status != http.StatusOK {
		t.Fatalf("shifted status = %d, body %s", status, body2)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("equivalent trace spellings must return byte-identical cached bodies")
	}
	if st := svc.CacheStats(); st.Entries != 1 {
		t.Errorf("entries = %d; want 1 shared entry", st.Entries)
	}
}

// TestSimulateVideoTraceValidation locks in the 400s of the new kinds,
// including the acceptance criterion that peak demand at or above the
// backend media rate is rejected.
func TestSimulateVideoTraceValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantErr string
	}{
		{"video peak above media rate",
			`{"rate":"90 Mbps","buffer":"10 MiB","stream":"video"}`,
			"peak demand"},
		{"trace peak above media rate",
			`{"buffer":"10 MiB","stream":"trace","frames":[
				{"timestamp":0,"size":"8Mbit"},{"timestamp":0.04,"size":"8Mbit"}]}`,
			"peak demand"},
		{"video object on cbr",
			`{"rate":"1024 kbps","buffer":"64 KiB","video":{"frame_rate":30}}`,
			"video object only applies"},
		{"frames on video",
			`{"rate":"1024 kbps","buffer":"64 KiB","stream":"video","frames":[{"timestamp":0,"size":"4000bit"}]}`,
			"frames only apply"},
		{"trace without frames",
			`{"buffer":"64 KiB","stream":"trace"}`,
			"frames is required"},
		{"trace with rate",
			`{"rate":"1024 kbps","buffer":"64 KiB","stream":"trace","frames":[{"timestamp":0,"size":"4000bit"}]}`,
			"rate does not apply"},
		{"bad jitter",
			`{"rate":"1024 kbps","buffer":"64 KiB","stream":"video","video":{"jitter":1.5}}`,
			"jitter"},
		{"absurd frame rate",
			`{"rate":"1024 kbps","buffer":"64 KiB","duration":"1 h","stream":"video","video":{"frame_rate":1e9}}`,
			"frame_rate"},
		{"absurd gop length",
			`{"rate":"1024 kbps","buffer":"64 KiB","stream":"video","video":{"gop_length":100000}}`,
			"gop_length"},
		{"bad frame class",
			`{"buffer":"64 KiB","stream":"trace","frames":[{"timestamp":0,"size":"4000bit","class":"X"}]}`,
			"frame class"},
		{"non-increasing timestamps",
			`{"buffer":"64 KiB","stream":"trace","frames":[
				{"timestamp":0,"size":"4000bit"},{"timestamp":0,"size":"4000bit"}]}`,
			"strictly increasing"},
		{"missing timestamp",
			`{"buffer":"64 KiB","stream":"trace","frames":[{"size":"4000bit"}]}`,
			"timestamp is required"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := post(t, srv, "/v1/simulate", c.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s; want 400", status, body)
			}
			if !strings.Contains(string(body), c.wantErr) {
				t.Errorf("body %s does not mention %q", body, c.wantErr)
			}
		})
	}
}

// TestSimulateVideoMatchesLibraryRun is the cross-layer parity check: the
// service's "stream": "video" answer must equal a direct sim.RunConfig with
// the same spec and seed.
func TestSimulateVideoMatchesLibraryRun(t *testing.T) {
	svc := New(Config{})
	resp, err := svc.Simulate(context.Background(), SimulateRequest{
		Rate: "1024 kbps", Buffer: "64 KiB", Duration: "30 s", Stream: "video", Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.VideoSpec(1024*units.Kbps, 9)
	cfg := sim.Config{
		Device:     device.DefaultMEMS(),
		DRAM:       device.DefaultDRAM(),
		Buffer:     64 * units.KiB,
		Spec:       spec,
		BestEffort: workload.NewBestEffortProcess(0.05, device.DefaultMEMS().MediaRate(), 9),
		Duration:   30 * units.Second,
		Seed:       9,
	}
	stats, err := sim.RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := resp.Runs[0]
	if run.RefillCycles != stats.RefillCycles {
		t.Errorf("refill cycles: service %d vs library %d", run.RefillCycles, stats.RefillCycles)
	}
	if run.StreamedBits != stats.StreamedBits.Bits() {
		t.Errorf("streamed bits: service %v vs library %v", run.StreamedBits, stats.StreamedBits.Bits())
	}
	if run.EnergyPerBitJoules != stats.PerBitEnergy().JoulesPerBit() {
		t.Errorf("per-bit energy: service %v vs library %v", run.EnergyPerBitJoules, stats.PerBitEnergy().JoulesPerBit())
	}
	if run.Underruns != stats.Underruns || run.RebufferEpisodes != stats.RebufferEpisodes {
		t.Errorf("stall metrics diverge: service (%d, %d) vs library (%d, %d)",
			run.Underruns, run.RebufferEpisodes, stats.Underruns, stats.RebufferEpisodes)
	}
}

// TestSimulateDiskUndersizedBufferIs400 locks in the status mapping for the
// disk backend's most likely user error: a MEMS-scale buffer that cannot
// cover the spin-up drain is detected by the run itself and must surface as
// a 400, not a 500.
func TestSimulateDiskUndersizedBufferIs400(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/simulate",
		`{"device":{"name":"disk"},"rate":"1024 kbps","buffer":"64 KiB"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", status, body)
	}
	if !strings.Contains(string(body), "positioning time") {
		t.Errorf("body %s does not explain the spin-up drain", body)
	}
}

// multiSimBody is a canonical two-stream multisim request body.
const multiSimBody = `{"streams":[` +
	`{"name":"playback","rate":"1024 kbps","buffer":"128 KB","write_fraction":0},` +
	`{"name":"recording","rate":"512 kbps","buffer":"64 KB","write_fraction":1}` +
	`],"duration":"30 s","replicas":2}`

func TestMultiSimEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/multisim", multiSimBody)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp MultiSimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Policy != "round-robin" {
		t.Errorf("policy = %q; want the round-robin default", resp.Policy)
	}
	if len(resp.Runs) != 2 {
		t.Fatalf("runs = %d; want 2", len(resp.Runs))
	}
	for i, run := range resp.Runs {
		if run.Seed != uint64(1+i) {
			t.Errorf("run %d seed = %d; want %d", i, run.Seed, 1+i)
		}
		if run.WakeUps <= 0 {
			t.Errorf("run %d wake-ups = %d; want positive", i, run.WakeUps)
		}
		if run.Underruns != 0 {
			t.Errorf("run %d underruns = %d; provisioned buffers must not underrun", i, run.Underruns)
		}
		if run.SpringsLifetimeYears == nil || *run.SpringsLifetimeYears <= 0 {
			t.Errorf("run %d springs projection = %v; want positive", i, run.SpringsLifetimeYears)
		}
		if len(run.Streams) != 2 {
			t.Fatalf("run %d has %d stream records; want 2", i, len(run.Streams))
		}
		if run.Streams[0].Name != "playback" || run.Streams[1].Name != "recording" {
			t.Errorf("run %d stream order = %q, %q; want request order", i, run.Streams[0].Name, run.Streams[1].Name)
		}
		shares := 0.0
		for _, st := range run.Streams {
			if st.StreamedBits <= 0 {
				t.Errorf("run %d stream %q streamed nothing", i, st.Name)
			}
			if st.RefillCycles <= 0 {
				t.Errorf("run %d stream %q never refilled", i, st.Name)
			}
			shares += st.EnergyShare
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("run %d energy shares sum to %g; want 1", i, shares)
		}
		if run.Streams[0].StartupDelaySeconds >= run.Streams[1].StartupDelaySeconds {
			t.Errorf("run %d startup delays %g, %g; the second-serviced stream starts later",
				i, run.Streams[0].StartupDelaySeconds, run.Streams[1].StartupDelaySeconds)
		}
	}
}

func TestMultiSimPolicySpellingsAndFingerprint(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	canonical := `{"policy":"round-robin","streams":[{"name":"a","rate":"1024 kbps","buffer":"128 KB"}],"duration":"10 s"}`
	alias := `{"policy":"rr","streams":[{"name":"a","rate":1024000,"buffer":"128 KB"}],"duration":10}`
	_, a := post(t, srv, "/v1/multisim", canonical)
	_, b := post(t, srv, "/v1/multisim", alias)
	if !bytes.Equal(a, b) {
		t.Error("equivalent multisim spellings must share a cache entry byte for byte")
	}
	status, c := post(t, srv, "/v1/multisim",
		`{"policy":"edf","streams":[{"name":"a","rate":"1024 kbps","buffer":"128 KB"}],"duration":"10 s"}`)
	if status != http.StatusOK {
		t.Fatalf("edf status = %d, body %s", status, c)
	}
	var resp MultiSimResponse
	if err := json.Unmarshal(c, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Policy != "most-urgent" {
		t.Errorf("policy = %q; want the canonical most-urgent spelling", resp.Policy)
	}
	if bytes.Equal(a, c) {
		t.Error("different policies must not share a response body")
	}
}

// TestMultiSimPriorityPolicy exercises the "priority" policy end to end: the
// "prio" alias canonicalizes, the per-stream priority field is accepted, and
// a different priority assignment gets its own cache entry.
func TestMultiSimPriorityPolicy(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	body := func(moviePrio, cameraPrio int) string {
		return fmt.Sprintf(`{"policy":"prio","streams":[`+
			`{"name":"movie","rate":"1024 kbps","buffer":"256 KB","priority":%d},`+
			`{"name":"camera","rate":"512 kbps","buffer":"128 KB","write_fraction":1,"priority":%d}`+
			`],"duration":"30 s"}`, moviePrio, cameraPrio)
	}
	status, a := post(t, srv, "/v1/multisim", body(1, 0))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, a)
	}
	var resp MultiSimResponse
	if err := json.Unmarshal(a, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Policy != "priority" {
		t.Errorf("policy = %q; want the canonical priority spelling", resp.Policy)
	}
	if resp.Runs[0].Underruns != 0 {
		t.Errorf("underruns = %d; provisioned buffers must not underrun", resp.Runs[0].Underruns)
	}
	// Inverting the classes makes the camera go first within every wake-up,
	// so the run (and therefore the cached body) must change.
	if _, b := post(t, srv, "/v1/multisim", body(0, 1)); bytes.Equal(a, b) {
		t.Error("inverted stream priorities must not share a response body")
	}
}

func TestMultiSimValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	cases := []struct {
		name, body, want string
	}{
		{"no streams", `{"streams":[]}`, "streams is required"},
		{"unknown policy", `{"policy":"fifo","streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB"}]}`, "unknown policy"},
		{"missing name", `{"streams":[{"rate":"1 Mbps","buffer":"128 KB"}]}`, "name is required"},
		{"unknown kind", `{"streams":[{"name":"a","stream":"trace","rate":"1 Mbps","buffer":"128 KB"}]}`, `streams[0].stream must be`},
		{"video object on cbr", `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB","video":{}}]}`, "video object"},
		{"bad write fraction", `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB","write_fraction":1.5}]}`, "write_fraction"},
		{"inadmissible aggregate", `{"streams":[{"name":"a","rate":"60 Mbps","buffer":"8 MB"},{"name":"b","rate":"60 Mbps","buffer":"8 MB"}]}`, "aggregate"},
		{"undersized buffer", `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"64 bit"}]}`, "service round"},
		{"bad best effort", `{"best_effort":1.5,"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB"}]}`, "best_effort"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, srv, "/v1/multisim", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s; want 400", status, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("body %s does not mention %q", body, tc.want)
			}
		})
	}
}

func TestMultiSimDiskBackend(t *testing.T) {
	_, srv := newTestServer(t, Config{})
	status, body := post(t, srv, "/v1/multisim",
		`{"device":{"name":"disk"},"streams":[`+
			`{"name":"playback","rate":"1024 kbps","buffer":"4 MB","write_fraction":0},`+
			`{"name":"recording","rate":"512 kbps","buffer":"2 MB","write_fraction":1}`+
			`],"duration":"60 s"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp MultiSimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	run := resp.Runs[0]
	if run.SpringsLifetimeYears != nil || run.ProbesLifetimeYears != nil {
		t.Error("disk runs must omit the MEMS wear projections")
	}
	if run.WakeUps <= 0 {
		t.Errorf("wake-ups = %d; want positive", run.WakeUps)
	}
}

func TestMultiSimMatchesLibraryRun(t *testing.T) {
	svc, _ := newTestServer(t, Config{})
	resp, err := svc.MultiSim(context.Background(), MultiSimRequest{
		Streams: []MultiSimStreamSpec{
			{Name: "playback", Rate: "1024 kbps", Buffer: "128 KiB", WriteFraction: ptr(0.0)},
			{Name: "recording", Rate: "512 kbps", Buffer: "64 KiB", WriteFraction: ptr(1.0)},
		},
		Duration:   "30 s",
		BestEffort: ptr(0.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.MultiConfig{
		Device: device.DefaultMEMS(),
		DRAM:   device.DefaultDRAM(),
		Streams: []sim.MultiStream{
			{Name: "playback", Spec: specWithWrite(workload.CBRSpec(1024*units.Kbps), 0), Buffer: 128 * units.KiB},
			{Name: "recording", Spec: specWithWrite(workload.CBRSpec(512*units.Kbps), 1), Buffer: 64 * units.KiB},
		},
		Duration: 30 * units.Second,
		Seed:     1,
	}
	stats, err := sim.RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Runs[0].EnergyPerBitJoules, stats.Device.PerBitEnergy().JoulesPerBit(); got != want {
		t.Errorf("service per-bit energy %g != library %g", got, want)
	}
	if got, want := resp.Runs[0].WakeUps, stats.Device.RefillCycles; got != want {
		t.Errorf("service wake-ups %d != library %d", got, want)
	}
}

// specWithWrite overrides a spec's write fraction.
func specWithWrite(s workload.StreamSpec, write float64) workload.StreamSpec {
	s.WriteFraction = write
	return s
}

// ptr returns a pointer to v.
func ptr[T any](v T) *T { return &v }
