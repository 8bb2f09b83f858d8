package service

// This file is the observability layer of the service: the metric registry
// behind GET /metricsz, the per-endpoint HTTP instrumentation, and the
// structured access-log middleware memsd wraps around the handler.
//
// Metric families (all prefixed memsd_, the daemon they describe):
//
//	memsd_http_requests_total{endpoint,code}          counter: requests by status class
//	memsd_http_request_duration_seconds{endpoint}     histogram: request latency (p50/p99 derivable)
//	memsd_http_in_flight_requests                     gauge: requests currently in the handler
//	memsd_http_inflight_limit                         gauge: configured admission bound (0 = unbounded)
//	memsd_http_queue_depth                            gauge: requests waiting for an in-flight slot
//	memsd_http_deadline_aborts_total                  counter: requests lost to the compute deadline
//	memsd_http_requests_shed_total                    counter: admission-control refusals (429)
//	memsd_http_rate_limited_total{reason}             counter: per-client limiter refusals (429) by key kind
//	memsd_http_body_too_large_total                   counter: oversized-body rejections (413)
//	memsd_requests_served_total / _failed_total       counter: typed-API outcomes (HTTP and library)
//	memsd_compute_in_flight                           gauge: computations between begin and finish
//	memsd_cache_{hits,misses,evictions}_total         counter: result-cache totals
//	memsd_cache_entries / memsd_cache_capacity        gauge: result-cache occupancy and bound
//	memsd_cache_shard_entries{shard}                  gauge: per-shard occupancy
//	memsd_pool_tasks_executed_total                   counter: worker-pool tasks completed
//	memsd_pool_workers_started_total                  counter: worker loops started
//	memsd_pool_workers_busy                           gauge: worker loops running now
//	memsd_sim_replicas_total                          counter: simulation replicas completed
//	memsd_engine_runs_total / memsd_engine_steps_total  counter: engine runs and accounting steps
//	memsd_engine_simulated_hours                      gauge: total simulated time, in hours
//
// The HTTP families are updated live by the per-endpoint wrapper; the
// cache, pool, sim and engine families mirror counters maintained in their
// own packages and are synced once per scrape, so the hot paths carry no
// registry dependency. GET /metricsz itself is deliberately not
// instrumented: two consecutive scrapes of an idle service must be
// byte-identical, which a self-counting scrape endpoint would break.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"memstream/internal/engine"
	"memstream/internal/metrics"
	"memstream/internal/parallel"
)

// serviceMetrics bundles the registry and every instrument the service
// updates or mirrors.
type serviceMetrics struct {
	reg *metrics.Registry

	httpRequests   *metrics.CounterVec
	latency        *metrics.HistogramVec
	httpInFlight   *metrics.Gauge
	inflightLimit  *metrics.Gauge
	queueDepth     *metrics.Gauge
	deadlineAborts *metrics.Counter
	shed           *metrics.Counter
	rateLimited    *metrics.CounterVec
	bodyTooLarge   *metrics.Counter

	served          *metrics.Counter
	failed          *metrics.Counter
	computeInFlight *metrics.Gauge

	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictions *metrics.Counter
	cacheEntries   *metrics.Gauge
	cacheCapacity  *metrics.Gauge
	shardEntries   *metrics.GaugeVec

	poolTasks          *metrics.Counter
	poolWorkersStarted *metrics.Counter
	poolWorkersBusy    *metrics.Gauge

	simReplicas    *metrics.Counter
	engineRuns     *metrics.Counter
	engineSteps    *metrics.Counter
	simulatedHours *metrics.Gauge
}

// newServiceMetrics builds the registry and registers every family. Labeled
// traffic-control series are created eagerly so every family appears in the
// exposition from the first scrape, refusals or not.
func newServiceMetrics() *serviceMetrics {
	reg := metrics.NewRegistry()
	m := &serviceMetrics{
		reg: reg,
		httpRequests: reg.CounterVec("memsd_http_requests_total",
			"HTTP requests by endpoint and status class.", "endpoint", "code"),
		latency: reg.HistogramVec("memsd_http_request_duration_seconds",
			"HTTP request latency in seconds by endpoint.",
			metrics.DefLatencyBuckets(), "endpoint"),
		httpInFlight: reg.Gauge("memsd_http_in_flight_requests",
			"HTTP requests currently being handled."),
		inflightLimit: reg.Gauge("memsd_http_inflight_limit",
			"Configured admission-control in-flight bound (0 = unbounded)."),
		queueDepth: reg.Gauge("memsd_http_queue_depth",
			"Requests currently waiting in the admission queue."),
		deadlineAborts: reg.Counter("memsd_http_deadline_aborts_total",
			"Requests aborted by the per-request compute deadline."),
		shed: reg.Counter("memsd_http_requests_shed_total",
			"Requests refused by admission control (queue full or queue wait expired)."),
		rateLimited: reg.CounterVec("memsd_http_rate_limited_total",
			"Requests refused by the per-client rate limiter, by client key kind.", "reason"),
		bodyTooLarge: reg.Counter("memsd_http_body_too_large_total",
			"Requests rejected for exceeding the body size bound."),
		served: reg.Counter("memsd_requests_served_total",
			"Typed-API requests answered successfully."),
		failed: reg.Counter("memsd_requests_failed_total",
			"Typed-API requests that ended in an error."),
		computeInFlight: reg.Gauge("memsd_compute_in_flight",
			"Requests currently between begin and finish (computing or waiting on the cache)."),
		cacheHits: reg.Counter("memsd_cache_hits_total",
			"Result-cache lookups answered from a stored entry."),
		cacheMisses: reg.Counter("memsd_cache_misses_total",
			"Result-cache lookups that had to compute."),
		cacheEvictions: reg.Counter("memsd_cache_evictions_total",
			"Result-cache entries evicted to respect the bound."),
		cacheEntries: reg.Gauge("memsd_cache_entries",
			"Result-cache entries currently stored."),
		cacheCapacity: reg.Gauge("memsd_cache_capacity",
			"Result-cache entry bound."),
		shardEntries: reg.GaugeVec("memsd_cache_shard_entries",
			"Result-cache entries stored per shard.", "shard"),
		poolTasks: reg.Counter("memsd_pool_tasks_executed_total",
			"Worker-pool tasks completed since process start."),
		poolWorkersStarted: reg.Counter("memsd_pool_workers_started_total",
			"Worker-pool worker loops started since process start."),
		poolWorkersBusy: reg.Gauge("memsd_pool_workers_busy",
			"Worker-pool worker loops currently running."),
		simReplicas: reg.Counter("memsd_sim_replicas_total",
			"Simulation replicas completed since process start."),
		engineRuns: reg.Counter("memsd_engine_runs_total",
			"Engine runs completed since process start."),
		engineSteps: reg.Counter("memsd_engine_steps_total",
			"Engine accounting steps across completed runs."),
		simulatedHours: reg.Gauge("memsd_engine_simulated_hours",
			"Total simulated time covered by completed runs, in hours."),
	}
	// Both limiter key kinds exist from the first scrape, so an idle
	// service exposes the family and a double scrape stays byte-identical
	// whether or not anything was ever refused.
	m.rateLimited.With(keyKindAPIKey)
	m.rateLimited.With(keyKindIP)
	return m
}

// rateLimitedTotal sums the limiter refusals across key kinds.
func (m *serviceMetrics) rateLimitedTotal() uint64 {
	return m.rateLimited.With(keyKindAPIKey).Value() + m.rateLimited.With(keyKindIP).Value()
}

// syncMetrics mirrors the externally maintained counters (cache, pool, sim
// and engine) into the registry; it runs once per scrape.
// The pool, sim and engine totals are process-global, so two Services in
// one process report the same values for those families.
func (s *Service) syncMetrics() {
	m := s.met
	cs := s.cache.Stats()
	m.cacheHits.Store(cs.Hits)
	m.cacheMisses.Store(cs.Misses)
	m.cacheEvictions.Store(cs.Evictions)
	m.cacheEntries.Set(float64(cs.Entries))
	m.cacheCapacity.Set(float64(cs.Capacity))
	for i, ss := range cs.PerShard {
		m.shardEntries.With(strconv.Itoa(i)).Set(float64(ss.Entries))
	}

	pt := parallel.PoolTotals()
	m.poolTasks.Store(pt.TasksExecuted)
	m.poolWorkersStarted.Store(pt.WorkersStarted)
	m.poolWorkersBusy.Set(float64(pt.WorkersBusy))

	et := engine.Totals()
	m.engineRuns.Store(et.Runs)
	m.engineSteps.Store(et.Steps)
	m.simulatedHours.Set(et.SimulatedSeconds / 3600)
	// Each completed simulation replica is one engine run.
	m.simReplicas.Store(et.Runs)
}

// MetricsHandler serves the Prometheus text exposition of the service
// registry — the same handler GET /metricsz routes to, exposed separately
// so a private debug listener can mount it too.
func (s *Service) MetricsHandler() http.Handler {
	return metrics.Handler(s.met.reg, s.syncMetrics)
}

// LatencyQuantile returns an estimate of the q-quantile request latency of
// one endpoint, in seconds, from its histogram buckets (NaN before the
// first request).
func (s *Service) LatencyQuantile(endpoint string, q float64) float64 {
	return s.met.latency.With(endpoint).Quantile(q)
}

// statusClass buckets an HTTP status code into its Prometheus label class
// ("2xx", "4xx", ...).
func statusClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

// statusRecorder captures the status code and body size a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// instrument wraps one endpoint handler with the request counter, the
// latency histogram and the in-flight gauge. The histogram series is
// created eagerly so every endpoint's latency family appears in the
// exposition from the first scrape, requests or not.
func (s *Service) instrument(endpoint string, h http.Handler) http.Handler {
	hist := s.met.latency.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.httpInFlight.Inc()
		defer s.met.httpInFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r)
		hist.Observe(time.Since(start).Seconds())
		s.met.httpRequests.With(endpoint, statusClass(rec.status)).Inc()
	})
}

// RequestInfo carries per-request observability state between the access-log
// middleware (which creates it) and the service internals (which annotate
// it): the request ID, whether the answer came from the result cache, and
// the worker bound the computation ran under.
type RequestInfo struct {
	// ID is the request ID: the client's X-Request-ID, or generated.
	ID string
	// Cache is "" until the request reaches the result cache, then "hit"
	// or "miss".
	Cache string
	// Workers is the resolved worker bound (0 until resolved).
	Workers int
}

// requestInfoKey is the context key RequestInfo travels under.
type requestInfoKey struct{}

// requestInfoFrom returns the request's RequestInfo, or nil outside the
// access-log middleware.
func requestInfoFrom(ctx context.Context) *RequestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*RequestInfo)
	return info
}

// noteCache annotates the request with the result-cache outcome.
func noteCache(ctx context.Context, hit bool) {
	if info := requestInfoFrom(ctx); info != nil {
		if hit {
			info.Cache = "hit"
		} else {
			info.Cache = "miss"
		}
	}
}

// noteWorkers annotates the request with its resolved worker bound.
func noteWorkers(ctx context.Context, workers int) {
	if info := requestInfoFrom(ctx); info != nil {
		info.Workers = workers
	}
}

// maxRequestIDBytes caps an echoed client-supplied X-Request-ID.
const maxRequestIDBytes = 128

// validRequestID reports whether a client-supplied request ID is safe to
// echo into response headers and structured logs: bounded length, printable
// ASCII only. Control bytes (header/log injection), high bytes and
// megabyte values all fail.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDBytes {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// requestID returns the client-supplied X-Request-ID when it is safe to
// echo, or a fresh random ID otherwise.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively unreachable; degrade to a
		// constant rather than panic in the serving path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// AccessLog wraps h with structured request logging: one slog record per
// request carrying the request ID (honored from X-Request-ID when it is
// bounded printable ASCII, generated otherwise, and echoed back in the
// response), method, endpoint, status, response bytes, latency,
// result-cache outcome and worker bound. Records carry no source position:
// the one Logger.LogAttrs captured named a line inside AccessLog itself. A
// nil logger returns h unchanged.
func AccessLog(log *slog.Logger, h http.Handler) http.Handler {
	if log == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &RequestInfo{ID: requestID(r)}
		ctx := context.WithValue(r.Context(), requestInfoKey{}, info)
		w.Header()["X-Request-Id"] = []string{info.ID}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start)
		if !log.Enabled(ctx, slog.LevelInfo) {
			return
		}
		attrs := [8]slog.Attr{
			slog.String("id", info.ID),
			slog.String("method", r.Method),
			slog.String("endpoint", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Int("bytes", rec.bytes),
			slog.Duration("duration", elapsed),
		}
		n := 6
		if info.Cache != "" {
			attrs[n] = slog.String("cache", info.Cache)
			n++
		}
		if info.Workers > 0 {
			attrs[n] = slog.Int("workers", info.Workers)
			n++
		}
		record := slog.NewRecord(time.Now(), slog.LevelInfo, "request", 0)
		record.AddAttrs(attrs[:n]...)
		// Like Logger.LogAttrs, a handler's error has nowhere to go.
		_ = log.Handler().Handle(ctx, record)
	})
}
