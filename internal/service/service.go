// Package service is the dimensioning-as-a-service layer: typed JSON
// request/response schemas with strict validation, plus HTTP handlers for
//
//	POST /v1/dimension   — buffer dimensioning at one rate
//	POST /v1/sweep       — a Fig. 3 style dimensioning sweep over rates
//	POST /v1/simulate    — discrete-event simulation runs (optionally batched)
//	POST /v1/multisim    — shared-device simulation of several concurrent streams
//	POST /v1/breakeven   — MEMS versus disk break-even buffers at one rate
//	POST /v1/multistream — shared-device dimensioning of a stream mix
//	GET  /healthz        — liveness
//	GET  /statsz         — cache and in-flight counters
//
// Every computation routes through the existing engines (internal/core,
// internal/explore, internal/sim, internal/multistream) on the bounded
// worker pool of internal/parallel, under a per-request context deadline and
// worker bound. Results are memoized in a sharded LRU (internal/cache) keyed
// on a compact binary fingerprint of the resolved request, so identical
// questions — including concurrent ones, which share a single computation —
// return byte-identical response bodies. The fingerprint holds what the
// resolved request's JSON encoding would; that encoding stays only as the
// tests' oracle for the key. Worker bounds never change a result, only its
// latency, so they are excluded from the fingerprint.
// Every endpoint runs one pipeline — strict decode, resolve, fingerprint,
// cache or single-flight, compute, marshal — on the request's own
// goroutine, so no computation outlives its response.
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime/debug"
	"sync"
	"time"

	"memstream/internal/cache"
	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/energy"
	"memstream/internal/engine"
	"memstream/internal/explore"
	"memstream/internal/lifetime"
	"memstream/internal/multistream"
	"memstream/internal/parallel"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Config parameterises a Service.
type Config struct {
	// CacheEntries bounds the result cache (default cache.DefaultEntries).
	CacheEntries int
	// CacheShards sets the cache shard count (default cache.DefaultShards).
	CacheShards int
	// MaxWorkers caps the per-request worker bound. Zero allows up to one
	// worker per CPU (the engine default).
	MaxWorkers int
	// Timeout is the per-request compute deadline. Zero disables it.
	Timeout time.Duration

	// MaxInFlight bounds how many /v1 requests may execute at once
	// (admission control). Zero disables admission control.
	MaxInFlight int
	// MaxQueue bounds how many /v1 requests may wait for an in-flight slot
	// beyond MaxInFlight; arrivals past the queue bound are shed with a 429
	// and a Retry-After hint. Zero queues nothing: the bound alone decides.
	MaxQueue int
	// QueueWait bounds how long one queued request waits for capacity
	// before being shed (default DefaultQueueWait). Only meaningful with
	// MaxInFlight > 0.
	QueueWait time.Duration

	// RateLimit is the sustained per-client allowance on /v1 endpoints, in
	// requests per second (clients are keyed on X-API-Key when present,
	// client IP otherwise). Zero disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity: the largest instantaneous
	// request batch one client may spend. Zero defaults to the integer
	// ceiling of RateLimit (at least 1).
	RateBurst int
	// RateLimitClients bounds the limiter's client-key table (LRU evicted;
	// default DefaultRateLimitClients), so hostile key churn recycles
	// entries instead of growing memory.
	RateLimitClients int
}

// Service answers dimensioning questions through a shared result cache. It
// is safe for concurrent use; the HTTP handlers and the exported typed
// methods share the same cache, counters and metric registry.
type Service struct {
	cfg     Config
	cache   *cache.Cache
	met     *serviceMetrics
	admit   *admission
	limiter *rateLimiter
	start   time.Time
}

// New builds a Service.
func New(cfg Config) *Service {
	met := newServiceMetrics()
	s := &Service{
		cfg:     cfg,
		cache:   cache.New(cfg.CacheEntries, cfg.CacheShards),
		met:     met,
		admit:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait, met.queueDepth),
		limiter: newRateLimiter(cfg.RateLimit, cfg.RateBurst, cfg.RateLimitClients),
		start:   time.Now(),
	}
	if cfg.MaxInFlight > 0 {
		met.inflightLimit.Set(float64(cfg.MaxInFlight))
	}
	return s
}

// CacheStats returns a snapshot of the result-cache counters.
func (s *Service) CacheStats() cache.Stats { return s.cache.Stats() }

// Stats is the /statsz payload.
type Stats struct {
	// Cache is the result-cache snapshot.
	Cache cache.Stats `json:"cache"`
	// CacheHitRate is Cache's hit fraction.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// InFlight is the number of requests currently being computed.
	InFlight int64 `json:"in_flight"`
	// Served counts requests answered successfully since start.
	Served uint64 `json:"served"`
	// Failed counts requests that ended in an error since start.
	Failed uint64 `json:"failed"`
	// Shed counts /v1 requests refused by admission control (queue full or
	// queue wait expired) since start.
	Shed uint64 `json:"shed"`
	// RateLimited counts /v1 requests refused by the per-client rate
	// limiter since start.
	RateLimited uint64 `json:"rate_limited"`
	// BodyTooLarge counts requests refused for an oversized body since
	// start.
	BodyTooLarge uint64 `json:"body_too_large"`
	// InFlightLimit is the configured admission bound (0 = unbounded).
	InFlightLimit int `json:"in_flight_limit"`
	// QueueDepth is the number of requests waiting for an in-flight slot.
	QueueDepth int `json:"queue_depth"`
	// RateLimitClients is the limiter key-table occupancy.
	RateLimitClients int `json:"rate_limit_clients"`
	// UptimeSeconds is the time since the Service was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		Cache:            cs,
		CacheHitRate:     cs.HitRate(),
		InFlight:         int64(s.met.computeInFlight.Value()),
		Served:           s.met.served.Value(),
		Failed:           s.met.failed.Value(),
		Shed:             s.met.shed.Value(),
		RateLimited:      s.met.rateLimitedTotal(),
		BodyTooLarge:     s.met.bodyTooLarge.Value(),
		InFlightLimit:    s.cfg.MaxInFlight,
		QueueDepth:       int(s.met.queueDepth.Value()),
		RateLimitClients: s.limiter.clients(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
	}
}

// buildVersion returns the module version recorded in the binary's build
// info ("(devel)" for plain go build/test, the module version for installed
// builds), computed once.
func buildVersion() string {
	versionOnce.Do(func() {
		version = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
			version = bi.Main.Version
		}
	})
	return version
}

var (
	versionOnce sync.Once
	version     string
)

// workerBound clamps a request's worker ask against the service cap, or
// rejects a negative ask — siblings like points and replicas are validated
// strictly, so a sign bug should not silently change latency behaviour.
func (s *Service) workerBound(requested int) (int, error) {
	if requested < 0 {
		return 0, invalidf("workers must be non-negative (0 = service default), got %d", requested)
	}
	if s.cfg.MaxWorkers > 0 && (requested == 0 || requested > s.cfg.MaxWorkers) {
		return s.cfg.MaxWorkers, nil
	}
	return requested, nil
}

// effectiveWorkers resolves a zero worker bound to the engine default (one
// per CPU) for observability: the access log reports the bound the
// computation actually ran under.
func effectiveWorkers(workers int) int {
	if workers <= 0 {
		return parallel.DefaultWorkers()
	}
	return workers
}

// begin applies the per-request deadline and bumps the in-flight gauge; the
// returned finish records the outcome and must be called exactly once.
func (s *Service) begin(ctx context.Context) (context.Context, func(err error)) {
	cancel := func() {}
	if s.cfg.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
	}
	s.met.computeInFlight.Inc()
	return ctx, func(err error) {
		s.met.computeInFlight.Dec()
		cancel()
		if err != nil {
			s.met.failed.Inc()
			if errors.Is(err, context.DeadlineExceeded) {
				s.met.deadlineAborts.Inc()
			}
		} else {
			s.met.served.Inc()
		}
	}
}

// job is one resolved request: every input of its computation, parsed,
// validated and canonicalized. Every input that can change the answer is an
// exported field, so the job's binary fingerprint (appendFingerprint), which
// holds exactly what its JSON encoding would, is its cache key, and
// equivalent spellings of one question share an entry. The JSON encoding
// stays only as the tests' oracle for the key. The worker bound changes only
// the latency, never the answer, so it is not exported and not part of the
// key.
type job interface {
	// workers returns the worker bound the computation runs under.
	workers() int
	// run computes the response value.
	run(ctx context.Context) (any, error)
}

// serve is the one endpoint pipeline: resolve the request into its job,
// fingerprint the job, then answer from the cache or compute and marshal
// once under the request deadline. Hits and single-flight waiters reuse the
// stored bytes, so identical questions get byte-identical bodies.
func serve[J job](ctx context.Context, s *Service, endpoint string, resolve func(*Service) (J, error)) (body []byte, err error) {
	ctx, finish := s.begin(ctx)
	defer func() { finish(err) }()

	j, err := resolve(s)
	if err != nil {
		return nil, err
	}
	// The key is the endpoint, a zero byte and the job's fingerprint, built
	// on the stack: a hit allocates only the key string.
	var buf [512]byte
	key, err := appendFingerprint(append(append(buf[:0], endpoint...), 0), reflect.ValueOf(&j).Elem())
	if err != nil {
		return nil, fmt.Errorf("service: fingerprint: %w", err)
	}
	noteWorkers(ctx, effectiveWorkers(j.workers()))
	body, cached, err := s.cache.Do(ctx, string(key), func() ([]byte, error) {
		// A dead context never starts a computation, so a single-flight
		// retry of a timed-out flight cannot start work nobody awaits.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		result, err := j.run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(result)
	})
	if err == nil {
		noteCache(ctx, cached)
	}
	return body, err
}

// runError classifies a failed computation. Cancellations and deadline hits
// keep their transport status codes; anything else the engines reject was
// derived from the request (a rate at the media rate, a buffer below the
// disk's spin-up drain, ...) and is a 400.
func runError(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return invalidf("%v", err)
}

// dimensionJob is a resolved DimensionRequest.
type dimensionJob struct {
	Device device.MEMS
	Rate   units.BitRate
	Goal   core.Goal
}

func (r DimensionRequest) resolve(*Service) (j dimensionJob, err error) {
	if j.Device, err = r.Device.resolve(); err != nil {
		return j, err
	}
	if j.Rate, err = r.Rate.rate("rate"); err != nil {
		return j, err
	}
	j.Goal, err = r.Goal.resolve()
	return j, err
}

// A single-rate dimensioning always runs on one worker.
func (dimensionJob) workers() int { return 1 }

func (j dimensionJob) run(ctx context.Context) (any, error) {
	// A single-rate sweep routes the dimensioning through the same engine
	// path (and worker pool) as /v1/sweep.
	sweep, err := explore.RunContext(ctx, explore.Config{Device: j.Device, Goal: j.Goal, Workers: 1}, []units.BitRate{j.Rate})
	if err != nil {
		return nil, runError(err)
	}
	p := sweep.Points[0]
	d := p.Dimensioning
	resp := &DimensionResponse{
		Rate:              j.Rate.String(),
		RateBitsPerSecond: j.Rate.BitsPerSecond(),
		Feasible:          d.Feasible,
		Dominant:          d.Dominant.String(),
		BreakEvenBits:     p.BreakEven.Bits(),
		BreakEven:         p.BreakEven.String(),
		MinimumBufferBits: p.MinimumBuffer.Bits(),
		Requirements:      requirementResults(d),
	}
	if d.Feasible {
		resp.BufferBits = d.Buffer.Bits()
		resp.Buffer = d.Buffer.String()
	}
	return resp, nil
}

// DimensionBytes answers a DimensionRequest with the cached response body.
func (s *Service) DimensionBytes(ctx context.Context, req DimensionRequest) ([]byte, error) {
	return serve(ctx, s, "dimension", req.resolve)
}

// Dimension answers a DimensionRequest through the cache.
func (s *Service) Dimension(ctx context.Context, req DimensionRequest) (*DimensionResponse, error) {
	return typed[DimensionResponse](s.DimensionBytes(ctx, req))
}

// sweepJob is a resolved SweepRequest.
type sweepJob struct {
	Device  device.MEMS
	Goal    core.Goal
	MinRate units.BitRate
	MaxRate units.BitRate
	Points  int
	bound   int
}

func (r SweepRequest) resolve(s *Service) (j sweepJob, err error) {
	if j.Device, err = r.Device.resolve(); err != nil {
		return j, err
	}
	if j.Goal, err = r.Goal.resolve(); err != nil {
		return j, err
	}
	if j.MinRate, err = r.MinRate.rate("min_rate"); err != nil {
		return j, err
	}
	if j.MaxRate, err = r.MaxRate.rate("max_rate"); err != nil {
		return j, err
	}
	if j.MaxRate <= j.MinRate {
		return j, invalidf("max_rate %v must exceed min_rate %v", j.MaxRate, j.MinRate)
	}
	if r.Points < 2 || r.Points > MaxSweepPoints {
		return j, invalidf("points must be in [2, %d], got %d", MaxSweepPoints, r.Points)
	}
	j.Points = r.Points
	j.bound, err = s.workerBound(r.Workers)
	return j, err
}

func (j sweepJob) workers() int { return j.bound }

func (j sweepJob) run(ctx context.Context) (any, error) {
	rates, err := explore.LogSpace(j.MinRate, j.MaxRate, j.Points)
	if err != nil {
		return nil, err
	}
	sweep, err := explore.RunContext(ctx, explore.Config{Device: j.Device, Goal: j.Goal, Workers: j.bound}, rates)
	if err != nil {
		return nil, runError(err)
	}
	resp := &SweepResponse{
		Goal:           j.Goal.String(),
		Points:         make([]SweepPointResult, 0, len(sweep.Points)),
		DominanceShare: map[string]float64{},
	}
	for _, p := range sweep.Points {
		d := p.Dimensioning
		pr := SweepPointResult{
			RateBitsPerSecond: p.Rate.BitsPerSecond(),
			Rate:              p.Rate.String(),
			Feasible:          d.Feasible,
			Dominant:          d.Dominant.String(),
			BreakEvenBits:     p.BreakEven.Bits(),
		}
		if d.Feasible {
			pr.BufferBits = d.Buffer.Bits()
			pr.Buffer = d.Buffer.String()
		}
		resp.Points = append(resp.Points, pr)
	}
	for _, r := range sweep.Regimes() {
		resp.Regimes = append(resp.Regimes, RegimeResult{
			MinRate: r.MinRate.String(),
			MaxRate: r.MaxRate.String(),
			Label:   r.Label(),
			Points:  r.Points,
		})
	}
	if limit, ok := sweep.FeasibilityLimit(); ok {
		resp.FeasibilityLimit = limit.String()
	}
	for c, share := range sweep.DominanceShare() {
		resp.DominanceShare[c.String()] = share
	}
	return resp, nil
}

// SweepBytes answers a SweepRequest with the cached response body.
func (s *Service) SweepBytes(ctx context.Context, req SweepRequest) ([]byte, error) {
	return serve(ctx, s, "sweep", req.resolve)
}

// Sweep answers a SweepRequest through the cache.
func (s *Service) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	return typed[SweepResponse](s.SweepBytes(ctx, req))
}

// simRun is the run shape /v1/simulate and /v1/multisim share: the backend
// (its kind and both parameter sets are keyed, so a MEMS and a disk run of
// one shape never share an entry), the simulated time, the best-effort share
// and the replica seeds. The replica runners apply seed+i to every
// stochastic input, so nothing below the run carries a seed of its own.
type simRun struct {
	simDevice
	Duration   units.Duration
	BestEffort float64
	Seed       uint64
	Replicas   int
	bound      int
}

// resolveRun parses the run fields of a simulation request, in the order
// both simulation endpoints check them.
func (s *Service) resolveRun(dev simDevice, duration Quantity, bestEffort *float64, seed uint64, replicas, workers int) (r simRun, err error) {
	r.simDevice = dev
	if r.Duration, err = duration.duration("duration", 5*units.Minute); err != nil {
		return r, err
	}
	if !r.Duration.Positive() {
		return r, invalidf("duration must be positive")
	}
	if r.Duration.Seconds() > MaxSimSeconds {
		return r, invalidf("duration must not exceed %d simulated seconds, got %v", MaxSimSeconds, r.Duration)
	}
	r.BestEffort = 0.05
	if bestEffort != nil {
		r.BestEffort = *bestEffort
	}
	if math.IsNaN(r.BestEffort) || r.BestEffort < 0 || r.BestEffort >= 1 {
		return r, invalidf("best_effort must be in [0, 1), got %v", r.BestEffort)
	}
	r.Seed = cmp.Or(seed, 1)
	r.Replicas = cmp.Or(replicas, 1)
	if r.Replicas < 1 || r.Replicas > MaxSimReplicas {
		return r, invalidf("replicas must be in [1, %d], got %d", MaxSimReplicas, replicas)
	}
	r.bound, err = s.workerBound(workers)
	return r, err
}

func (r simRun) workers() int { return r.bound }

// backend returns the disk backend of a disk run, and nil for a MEMS run,
// which the simulators then build from the device.
func (r simRun) backend() engine.Backend {
	if r.Kind == "disk" {
		return engine.NewDisk(r.Disk)
	}
	return nil
}

// bestEffort returns the run's background request process against the
// device's media rate (the zero, disabled process for a zero share).
func (r simRun) bestEffort(mediaRate units.BitRate) workload.BestEffortProcess {
	if r.BestEffort > 0 {
		return workload.NewBestEffortProcess(r.BestEffort, mediaRate, 0)
	}
	return workload.BestEffortProcess{}
}

// wear projects a run's observed wear onto the springs and probes ratings
// under the default calendar. The projections are MEMS-specific: the disk
// has no analogue, so its runs omit both.
func (r simRun) wear(st *sim.Stats) (springs, probes *float64) {
	if r.Kind != "mems" {
		return nil, nil
	}
	cal := workload.DefaultCalendar()
	return yearsOrNil(st.ProjectedSpringsLifetime(r.MEMS, cal)), yearsOrNil(st.ProjectedProbesLifetime(r.MEMS, cal))
}

// simulateJob is a resolved SimulateRequest.
type simulateJob struct {
	simRun
	Buffer units.Size
	// Spec is the demand of the generated kinds (cbr, vbr, video).
	Spec workload.StreamSpec
	// Frames keys a trace instead of its spec: the offset normalization
	// leaves sub-nanosecond noise in the timestamps, and the quantized
	// frames let time-shifted traces share an entry.
	Frames []traceFrameKey
	// trace is the spec replaying Frames, built once so every replica's
	// validation and run share its demand pattern.
	trace workload.StreamSpec
}

func (r SimulateRequest) resolve(s *Service) (j simulateJob, err error) {
	dev, err := r.Device.resolveSim()
	if err != nil {
		return j, err
	}
	kind := cmp.Or(r.Stream, "cbr")
	switch kind {
	case "cbr", "vbr", "video", "trace":
	default:
		return j, invalidf("stream must be \"cbr\", \"vbr\", \"video\" or \"trace\", got %q", r.Stream)
	}
	if r.Video != nil && kind != "video" {
		return j, invalidf("the video object only applies to \"stream\": \"video\", not %q", kind)
	}
	if len(r.Frames) > 0 && kind != "trace" {
		return j, invalidf("frames only apply to \"stream\": \"trace\", not %q", kind)
	}
	// The trace defines its own rate; for every other kind the rate is the
	// nominal stream rate and is required.
	if kind == "trace" {
		if r.Rate != "" {
			return j, invalidf("rate does not apply to \"stream\": \"trace\" (the frames define it)")
		}
		var frames []workload.Frame
		if frames, j.Frames, err = resolveFrames(r.Frames); err != nil {
			return j, err
		}
		j.trace = workload.TraceSpec(frames)
	} else {
		rate, err := r.Rate.rate("rate")
		if err != nil {
			return j, err
		}
		if j.Spec, err = resolveSpec(kind, rate, r.Video); err != nil {
			return j, err
		}
	}
	if j.Buffer, err = r.Buffer.size("buffer"); err != nil {
		return j, err
	}
	j.simRun, err = s.resolveRun(dev, r.Duration, r.BestEffort, r.Seed, r.Replicas, r.Workers)
	return j, err
}

func (j simulateJob) run(ctx context.Context) (any, error) {
	spec := j.Spec
	if j.Frames != nil {
		spec = j.trace
	}
	cfg := sim.Config{
		Device:   j.MEMS,
		Backend:  j.backend(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   j.Buffer,
		Spec:     spec,
		Duration: j.Duration,
	}
	cfg.BestEffort = j.bestEffort(cfg.MediaRate())
	// One prototype configuration, validated once; RunReplicas seeds each
	// replica and reuses one pooled simulator per worker.
	stats, err := sim.RunReplicas(ctx, j.bound, cfg, j.Seed, j.Replicas)
	if err != nil {
		return nil, runError(err)
	}
	resp := &SimulateResponse{
		Rate:   spec.AverageRate().String(),
		Buffer: j.Buffer.String(),
		Runs:   make([]SimulateResult, len(stats)),
	}
	for i, st := range stats {
		perBit := st.PerBitEnergy()
		springs, probes := j.wear(st)
		resp.Runs[i] = SimulateResult{
			Seed:                 j.Seed + uint64(i),
			SimulatedSeconds:     st.SimulatedTime.Seconds(),
			StreamedBits:         st.StreamedBits.Bits(),
			RefillCycles:         st.RefillCycles,
			Underruns:            st.Underruns,
			RebufferEpisodes:     st.RebufferEpisodes,
			RebufferSeconds:      st.RebufferTime.Seconds(),
			StartupDelaySeconds:  st.StartupDelay.Seconds(),
			EnergyPerBit:         perBit.String(),
			EnergyPerBitJoules:   perBit.JoulesPerBit(),
			DutyCycle:            st.DutyCycle(),
			SpringsLifetimeYears: springs,
			ProbesLifetimeYears:  probes,
		}
	}
	return resp, nil
}

// SimulateBytes answers a SimulateRequest with the cached response body.
func (s *Service) SimulateBytes(ctx context.Context, req SimulateRequest) ([]byte, error) {
	return serve(ctx, s, "simulate", req.resolve)
}

// Simulate answers a SimulateRequest through the cache.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	return typed[SimulateResponse](s.SimulateBytes(ctx, req))
}

// multiSimJob is a resolved MultiSimRequest: the policy in canonical
// spelling and the streams as the simulator takes them.
type multiSimJob struct {
	simRun
	Policy  engine.Policy
	Streams []sim.MultiStream
}

func (r MultiSimRequest) resolve(s *Service) (j multiSimJob, err error) {
	dev, err := r.Device.resolveSim()
	if err != nil {
		return j, err
	}
	if j.Policy, err = resolvePolicy(r.Policy); err != nil {
		return j, err
	}
	if j.Streams, err = resolveMultiSimStreams(r.Streams); err != nil {
		return j, err
	}
	j.simRun, err = s.resolveRun(dev, r.Duration, r.BestEffort, r.Seed, r.Replicas, r.Workers)
	return j, err
}

func (j multiSimJob) run(ctx context.Context) (any, error) {
	cfg := sim.MultiConfig{
		Device:   j.MEMS,
		Backend:  j.backend(),
		DRAM:     device.DefaultDRAM(),
		Policy:   j.Policy,
		Streams:  j.Streams,
		Duration: j.Duration,
	}
	cfg.BestEffort = j.bestEffort(cfg.MediaRate())
	// RunMultiReplicas seeds stream j of replica i through the multi-stream
	// convention, on one pooled simulator per worker.
	stats, err := sim.RunMultiReplicas(ctx, j.bound, cfg, j.Seed, j.Replicas)
	if err != nil {
		return nil, runError(err)
	}
	resp := &MultiSimResponse{
		Policy: string(j.Policy),
		Runs:   make([]MultiSimResult, len(stats)),
	}
	for i, st := range stats {
		perBit := st.Device.PerBitEnergy()
		springs, probes := j.wear(&st.Device)
		run := MultiSimResult{
			Seed:                 j.Seed + uint64(i),
			SimulatedSeconds:     st.Device.SimulatedTime.Seconds(),
			WakeUps:              st.Device.RefillCycles,
			StreamedBits:         st.Device.StreamedBits.Bits(),
			Underruns:            st.Device.Underruns,
			EnergyPerBit:         perBit.String(),
			EnergyPerBitJoules:   perBit.JoulesPerBit(),
			DutyCycle:            st.Device.DutyCycle(),
			SpringsLifetimeYears: springs,
			ProbesLifetimeYears:  probes,
		}
		for k, stream := range st.Streams {
			run.Streams = append(run.Streams, MultiSimStreamResult{
				Name:                stream.Name,
				StreamedBits:        stream.StreamedBits.Bits(),
				RefillCycles:        stream.RefillCycles,
				Underruns:           stream.Underruns,
				RebufferEpisodes:    stream.RebufferEpisodes,
				RebufferSeconds:     stream.RebufferTime.Seconds(),
				StartupDelaySeconds: stream.StartupDelay.Seconds(),
				MinBufferLevelBits:  stream.MinBufferLevel.Bits(),
				EnergyShare:         st.EnergyShare(k),
			})
		}
		resp.Runs[i] = run
	}
	return resp, nil
}

// MultiSimBytes answers a MultiSimRequest with the cached response body.
func (s *Service) MultiSimBytes(ctx context.Context, req MultiSimRequest) ([]byte, error) {
	return serve(ctx, s, "multisim", req.resolve)
}

// MultiSim answers a MultiSimRequest through the cache.
func (s *Service) MultiSim(ctx context.Context, req MultiSimRequest) (*MultiSimResponse, error) {
	return typed[MultiSimResponse](s.MultiSimBytes(ctx, req))
}

// breakEvenJob is a resolved BreakEvenRequest.
type breakEvenJob struct {
	Device device.MEMS
	Rate   units.BitRate
}

func (r BreakEvenRequest) resolve(*Service) (j breakEvenJob, err error) {
	if j.Device, err = r.Device.resolve(); err != nil {
		return j, err
	}
	j.Rate, err = r.Rate.rate("rate")
	return j, err
}

// The two break-even inversions are O(1) closed forms, computed in place.
func (breakEvenJob) workers() int { return 1 }

func (j breakEvenJob) run(context.Context) (any, error) {
	mems, err := energy.BreakEvenBuffer(energy.MEMSBreakEvenAdapter{Device: j.Device}, j.Rate)
	if err != nil {
		return nil, err
	}
	disk, err := energy.BreakEvenBuffer(energy.DiskBreakEvenAdapter{Disk: device.Default18InchDisk()}, j.Rate)
	if err != nil {
		return nil, err
	}
	resp := &BreakEvenResponse{
		Rate:     j.Rate.String(),
		MEMSBits: mems.Bits(),
		DiskBits: disk.Bits(),
		MEMS:     mems.String(),
		Disk:     disk.String(),
	}
	if mems.Positive() {
		resp.DiskOverMEMS = disk.DivideBy(mems)
	}
	return resp, nil
}

// BreakEvenBytes answers a BreakEvenRequest with the cached response body.
func (s *Service) BreakEvenBytes(ctx context.Context, req BreakEvenRequest) ([]byte, error) {
	return serve(ctx, s, "breakeven", req.resolve)
}

// BreakEven answers a BreakEvenRequest through the cache.
func (s *Service) BreakEven(ctx context.Context, req BreakEvenRequest) (*BreakEvenResponse, error) {
	return typed[BreakEvenResponse](s.BreakEvenBytes(ctx, req))
}

// multiStreamJob is a resolved MultiStreamRequest.
type multiStreamJob struct {
	Device                device.MEMS
	Goal                  core.Goal
	Streams               []multistream.StreamSpec
	CountInterStreamSeeks bool
}

func (r MultiStreamRequest) resolve(*Service) (j multiStreamJob, err error) {
	if j.Device, err = r.Device.resolve(); err != nil {
		return j, err
	}
	if j.Goal, err = r.Goal.resolve(); err != nil {
		return j, err
	}
	j.Streams, err = resolveStreams(r.Streams)
	j.CountInterStreamSeeks = r.CountInterStreamSeeks
	return j, err
}

// Shared-device dimensioning is a single sequential computation.
func (multiStreamJob) workers() int { return 1 }

func (j multiStreamJob) run(ctx context.Context) (any, error) {
	// The Table I calendar; the per-stream write mix comes from the specs.
	system, err := multistream.NewSystem(j.Device, device.DefaultDRAM(), lifetime.DefaultWorkload(), j.Streams)
	if err != nil {
		return nil, invalidf("%v", err)
	}
	system.CountInterStreamSeeks = j.CountInterStreamSeeks
	dim, err := system.Dimension(j.Goal)
	if err != nil {
		return nil, err
	}
	// Dimension has no cancellation points (a whole 64-stream request takes
	// a fraction of a millisecond); a deadline that passed while it ran
	// still answers 504 and caches nothing.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := &MultiStreamResponse{
		Feasible: dim.Feasible,
		Dominant: dim.Dominant.String(),
	}
	if len(dim.Reasons) > 0 {
		resp.Reasons = make(map[string]string, len(dim.Reasons))
		for c, reason := range dim.Reasons {
			resp.Reasons[c.String()] = reason
		}
	}
	if dim.Feasible {
		resp.PeriodSeconds = dim.Period.Seconds()
		resp.Period = dim.Period.String()
		resp.TotalBufferBits = dim.Plan.TotalBuffer.Bits()
		resp.TotalBuffer = dim.Plan.TotalBuffer.String()
		resp.EnergySaving = dim.Plan.EnergySaving
		resp.Utilisation = dim.Plan.Utilisation
		resp.LifetimeYears = yearsOrNil(dim.Plan.Lifetime)
		for i, b := range dim.Plan.Buffers {
			resp.Buffers = append(resp.Buffers, MultiStreamBuffer{
				Name:       j.Streams[i].Name,
				BufferBits: b.Bits(),
				Buffer:     b.String(),
			})
		}
	}
	return resp, nil
}

// MultiStreamBytes answers a MultiStreamRequest with the cached response body.
func (s *Service) MultiStreamBytes(ctx context.Context, req MultiStreamRequest) ([]byte, error) {
	return serve(ctx, s, "multistream", req.resolve)
}

// MultiStream answers a MultiStreamRequest through the cache.
func (s *Service) MultiStream(ctx context.Context, req MultiStreamRequest) (*MultiStreamResponse, error) {
	return typed[MultiStreamResponse](s.MultiStreamBytes(ctx, req))
}

// typed decodes a cached response body into its response type.
func typed[T any](body []byte, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	var resp T
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("service: decode cached response: %w", err)
	}
	return &resp, nil
}

// maxBodyBytes bounds request bodies read by the HTTP layer.
const maxBodyBytes = 1 << 20

// Health is the /healthz payload.
type Health struct {
	// Status is "ok" while the service is serving.
	Status string `json:"status"`
	// UptimeSeconds is the time since the Service was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version is the module build version from debug.ReadBuildInfo.
	Version string `json:"version"`
}

// Health returns the liveness payload.
func (s *Service) Health() Health {
	return Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Version:       buildVersion(),
	}
}

// Handler returns the HTTP handler serving every endpoint. Every route
// except GET /metricsz is instrumented with the request counter and latency
// histogram families (scrapes must not observe themselves, so that two
// scrapes of an idle service stay byte-identical). The /v1 compute
// endpoints additionally pass the traffic controls, outermost first: the
// per-client rate limiter, then the admission controller, then the strict
// JSON decode — so refusals are counted and logged like any response but
// cost no decode or compute.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpointLabel string, h http.Handler) {
		mux.Handle(pattern, s.instrument(endpointLabel, h))
	}
	v1 := func(pattern, endpointLabel string, h http.Handler) {
		handle(pattern, endpointLabel, s.rateLimited(s.admitted(endpointLabel, h)))
	}
	handle("GET /healthz", "/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	}))
	handle("GET /statsz", "/statsz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	mux.Handle("GET /metricsz", s.MetricsHandler())
	v1("POST /v1/dimension", "/v1/dimension", endpoint(s, s.DimensionBytes))
	v1("POST /v1/sweep", "/v1/sweep", endpoint(s, s.SweepBytes))
	v1("POST /v1/simulate", "/v1/simulate", endpoint(s, s.SimulateBytes))
	v1("POST /v1/multisim", "/v1/multisim", endpoint(s, s.MultiSimBytes))
	v1("POST /v1/breakeven", "/v1/breakeven", endpoint(s, s.BreakEvenBytes))
	v1("POST /v1/multistream", "/v1/multistream", endpoint(s, s.MultiStreamBytes))
	return mux
}

// endpoint adapts one typed Bytes method into a strict-JSON HTTP handler.
func endpoint[Req any](s *Service, serve func(context.Context, Req) ([]byte, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				// An oversized body is a malformed request, not load
				// shedding: it gets its own counter so the shed total means
				// admission-control refusals only.
				s.met.bodyTooLarge.Inc()
				writeJSON(w, http.StatusRequestEntityTooLarge,
					errorBody{Error: fmt.Sprintf("service: request body exceeds %d bytes", tooLarge.Limit)})
				return
			}
			writeError(w, invalidf("decode body: %v", err))
			return
		}
		if dec.More() {
			writeError(w, invalidf("request body must be a single JSON object"))
			return
		}
		body, err := serve(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	})
}

// jsonContentType is the Content-Type header value of every JSON response,
// stored under the canonical key. The slice is shared and never written.
var jsonContentType = []string{"application/json"}

// errorBody is the JSON error payload of every non-200 response. 429
// refusals additionally carry the Retry-After hint in the body, so strict
// JSON clients need not parse headers.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// writeError maps an error onto a status code and a JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var verr *ValidationError
	switch {
	case errors.As(err, &verr):
		status = http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx convention.
		status = 499
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeJSON marshals v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encode response"}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}
