package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"memstream/internal/core"
	"memstream/internal/device"
	"memstream/internal/engine"
	"memstream/internal/multistream"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// ValidationError marks a request the service rejected before computing
// anything; the HTTP layer maps it to a 400 response.
type ValidationError struct {
	// Msg describes what was wrong with the request.
	Msg string
}

// Error implements the error interface.
func (e *ValidationError) Error() string { return "service: invalid request: " + e.Msg }

// invalidf builds a ValidationError.
func invalidf(format string, args ...any) error {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}

// Quantity is a physical quantity in a request body. It accepts either a
// JSON string in the unit grammar of internal/units ("1024 kbps", "64 KiB",
// "7 years") or a bare JSON number, interpreted per the parsers' bare-number
// conventions: bit/s for rates, bytes for sizes, seconds for durations.
type Quantity string

// UnmarshalJSON accepts a JSON string or number.
func (q *Quantity) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		if s, ok := plainString(data); ok {
			*q = Quantity(s)
			return nil
		}
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*q = Quantity(s)
		return nil
	}
	var n json.Number
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("quantity must be a string or a number")
	}
	*q = Quantity(n.String())
	return nil
}

// plainString returns the value of a JSON string literal of printable ASCII
// with no escape: exactly the bytes between its quotes, which is what
// json.Unmarshal would decode, without the second decode. Any other literal
// reports false.
func plainString(data []byte) (string, bool) {
	n := len(data)
	if n < 2 || data[0] != '"' || data[n-1] != '"' {
		return "", false
	}
	s := data[1 : n-1]
	for _, c := range s {
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return "", false
		}
	}
	return string(s), true
}

// rate parses the quantity as a bit rate and requires it positive and finite.
func (q Quantity) rate(field string) (units.BitRate, error) {
	if q == "" {
		return 0, invalidf("%s is required", field)
	}
	r, err := units.ParseBitRate(string(q))
	if err != nil {
		return 0, invalidf("%s: %v", field, err)
	}
	if !r.Positive() || math.IsInf(r.BitsPerSecond(), 0) {
		return 0, invalidf("%s must be a positive finite rate, got %q", field, q)
	}
	return r, nil
}

// size parses the quantity as a data size and requires it positive and finite.
func (q Quantity) size(field string) (units.Size, error) {
	if q == "" {
		return 0, invalidf("%s is required", field)
	}
	s, err := units.ParseSize(string(q))
	if err != nil {
		return 0, invalidf("%s: %v", field, err)
	}
	if !s.Positive() || math.IsInf(s.Bits(), 0) {
		return 0, invalidf("%s must be a positive finite size, got %q", field, q)
	}
	return s, nil
}

// duration parses the quantity as a duration and requires it non-negative
// and finite. Empty quantities return the fallback.
func (q Quantity) duration(field string, fallback units.Duration) (units.Duration, error) {
	if q == "" {
		return fallback, nil
	}
	d, err := units.ParseDuration(string(q))
	if err != nil {
		return 0, invalidf("%s: %v", field, err)
	}
	if d.Seconds() < 0 || math.IsInf(d.Seconds(), 0) || math.IsNaN(d.Seconds()) {
		return 0, invalidf("%s must be a non-negative finite duration, got %q", field, q)
	}
	return d, nil
}

// DeviceSpec selects and optionally tweaks the storage device of a request.
type DeviceSpec struct {
	// Name picks the base configuration: "default"/"mems" (or empty) for the
	// Table I device, "improved" for the Fig. 3c durability scenario, and —
	// on simulate requests only — "disk" for the 1.8-inch disk baseline.
	Name string `json:"name,omitempty"`
	// ProbeWriteCycles overrides the probe write-cycle rating when positive
	// (MEMS devices only).
	ProbeWriteCycles float64 `json:"probe_write_cycles,omitempty"`
	// SpringDutyCycles overrides the spring duty-cycle rating when positive
	// (MEMS devices only).
	SpringDutyCycles float64 `json:"spring_duty_cycles,omitempty"`
}

// resolve returns the fully specified MEMS device the spec describes, for
// the endpoints backed by the analytical MEMS models.
func (d DeviceSpec) resolve() (device.MEMS, error) {
	var dev device.MEMS
	switch d.Name {
	case "", "default", "mems":
		dev = device.DefaultMEMS()
	case "improved":
		dev = device.ImprovedMEMS()
	case "disk":
		return device.MEMS{}, invalidf("the \"disk\" backend is only supported by simulate requests")
	default:
		return device.MEMS{}, invalidf("unknown device %q (want \"mems\", \"default\" or \"improved\")", d.Name)
	}
	if d.ProbeWriteCycles < 0 || d.SpringDutyCycles < 0 ||
		math.IsNaN(d.ProbeWriteCycles) || math.IsNaN(d.SpringDutyCycles) ||
		math.IsInf(d.ProbeWriteCycles, 0) || math.IsInf(d.SpringDutyCycles, 0) {
		return device.MEMS{}, invalidf("device durability overrides must be positive and finite")
	}
	probes, springs := dev.ProbeWriteCycles, dev.SpringDutyCycles
	if d.ProbeWriteCycles > 0 {
		probes = d.ProbeWriteCycles
	}
	if d.SpringDutyCycles > 0 {
		springs = d.SpringDutyCycles
	}
	return dev.WithDurability(probes, springs), nil
}

// simDevice is a resolved simulate-request device: either a MEMS device (the
// analytical wear projections stay available) or the disk baseline.
type simDevice struct {
	// Kind is the canonical backend label fingerprinted into the cache key:
	// "mems" or "disk".
	Kind string
	// MEMS is the device for Kind "mems" (zero otherwise). The zero device
	// of the other kind is left out of the key, which Kind already decides.
	MEMS device.MEMS `json:",omitzero"`
	// Disk is the drive for Kind "disk" (zero otherwise).
	Disk device.Disk `json:",omitzero"`
}

// resolveSim resolves the spec for a simulate request, where the disk
// baseline is a valid backend alongside the MEMS devices.
func (d DeviceSpec) resolveSim() (simDevice, error) {
	if d.Name == "disk" {
		if d.ProbeWriteCycles != 0 || d.SpringDutyCycles != 0 {
			return simDevice{}, invalidf("durability overrides do not apply to the \"disk\" backend")
		}
		return simDevice{Kind: "disk", Disk: device.Default18InchDisk()}, nil
	}
	dev, err := d.resolve()
	if err != nil {
		return simDevice{}, err
	}
	return simDevice{Kind: "mems", MEMS: dev}, nil
}

// GoalSpec is the design goal (E, C, L) of a request.
type GoalSpec struct {
	// EnergySaving is E, the required relative energy saving, in [0, 1).
	EnergySaving float64 `json:"energy_saving"`
	// CapacityUtilisation is C, the required capacity utilisation, in [0, 1).
	CapacityUtilisation float64 `json:"capacity_utilisation"`
	// Lifetime is L, the required device lifetime (e.g. "7 years").
	Lifetime Quantity `json:"lifetime"`
}

// resolve parses and validates the goal.
func (g GoalSpec) resolve() (core.Goal, error) {
	// NaN slips through every range comparison (all compare false), so it
	// must be rejected explicitly before it can reach a fingerprint.
	if math.IsNaN(g.EnergySaving) || math.IsNaN(g.CapacityUtilisation) {
		return core.Goal{}, invalidf("goal fields must not be NaN")
	}
	lt, err := g.Lifetime.duration("goal.lifetime", 0)
	if err != nil {
		return core.Goal{}, err
	}
	goal := core.Goal{
		EnergySaving:        g.EnergySaving,
		CapacityUtilisation: g.CapacityUtilisation,
		Lifetime:            lt,
	}
	if err := goal.Validate(); err != nil {
		return core.Goal{}, invalidf("goal: %v", err)
	}
	return goal, nil
}

// DimensionRequest asks for the buffer required to meet a goal at one rate.
type DimensionRequest struct {
	// Device selects the MEMS device.
	Device DeviceSpec `json:"device,omitzero"`
	// Rate is the streaming bit rate.
	Rate Quantity `json:"rate"`
	// Goal is the design goal to dimension for.
	Goal GoalSpec `json:"goal"`
}

// RequirementResult is one constraint's buffer requirement in a response.
type RequirementResult struct {
	// Constraint is the paper's label (E, C, Lsp, Lpb).
	Constraint string `json:"constraint"`
	// Feasible reports whether any buffer satisfies the constraint.
	Feasible bool `json:"feasible"`
	// BufferBits is the minimum satisfying buffer in bits (0 if infeasible).
	BufferBits float64 `json:"buffer_bits"`
	// Buffer is the human-readable form of BufferBits.
	Buffer string `json:"buffer"`
	// Reason explains infeasibility (empty when feasible).
	Reason string `json:"reason,omitempty"`
}

// DimensionResponse is the answer to a DimensionRequest.
type DimensionResponse struct {
	// Rate echoes the parsed streaming rate.
	Rate string `json:"rate"`
	// RateBitsPerSecond is the parsed rate in bit/s.
	RateBitsPerSecond float64 `json:"rate_bps"`
	// Feasible reports whether every constraint can be met.
	Feasible bool `json:"feasible"`
	// Dominant is the constraint dictating the buffer.
	Dominant string `json:"dominant"`
	// BufferBits is the required buffer in bits.
	BufferBits float64 `json:"buffer_bits"`
	// Buffer is the human-readable required buffer.
	Buffer string `json:"buffer"`
	// BreakEvenBits is the energy break-even buffer in bits.
	BreakEvenBits float64 `json:"break_even_bits"`
	// BreakEven is the human-readable break-even buffer.
	BreakEven string `json:"break_even"`
	// MinimumBufferBits is the smallest buffer that closes a refill cycle.
	MinimumBufferBits float64 `json:"minimum_buffer_bits"`
	// Requirements holds the per-constraint requirements in E, C, Lsp, Lpb
	// order.
	Requirements []RequirementResult `json:"requirements"`
}

// SweepRequest asks for a dimensioning sweep over log-spaced rates.
type SweepRequest struct {
	// Device selects the MEMS device.
	Device DeviceSpec `json:"device,omitzero"`
	// Goal is the design goal swept.
	Goal GoalSpec `json:"goal"`
	// MinRate and MaxRate bound the swept rates.
	MinRate Quantity `json:"min_rate"`
	MaxRate Quantity `json:"max_rate"`
	// Points is the number of log-spaced rates (2..MaxSweepPoints).
	Points int `json:"points"`
	// Workers bounds the per-request worker pool; 0 uses the service
	// default. Workers never affect the result, only its latency, so they
	// are excluded from the cache fingerprint.
	Workers int `json:"workers,omitempty"`
}

// MaxSweepPoints bounds the rates one sweep request may ask for.
const MaxSweepPoints = 4096

// SweepPointResult is one rate's dimensioning within a sweep response.
type SweepPointResult struct {
	// RateBitsPerSecond is the sampled rate in bit/s.
	RateBitsPerSecond float64 `json:"rate_bps"`
	// Rate is its human-readable form.
	Rate string `json:"rate"`
	// Feasible reports whether the goal can be met at this rate.
	Feasible bool `json:"feasible"`
	// Dominant is the dictating constraint at this rate.
	Dominant string `json:"dominant"`
	// BufferBits is the required buffer in bits.
	BufferBits float64 `json:"buffer_bits"`
	// Buffer is its human-readable form.
	Buffer string `json:"buffer"`
	// BreakEvenBits is the break-even buffer in bits.
	BreakEvenBits float64 `json:"break_even_bits"`
}

// RegimeResult is one dominance regime of a sweep response.
type RegimeResult struct {
	// MinRate and MaxRate bound the regime (human-readable).
	MinRate string `json:"min_rate"`
	MaxRate string `json:"max_rate"`
	// Label is the paper-style annotation (E, C, Lsp, Lpb or X).
	Label string `json:"label"`
	// Points is the number of sampled rates in the regime.
	Points int `json:"points"`
}

// SweepResponse is the answer to a SweepRequest.
type SweepResponse struct {
	// Goal echoes the goal in the paper's figure-label format.
	Goal string `json:"goal"`
	// Points holds the per-rate dimensionings in ascending rate order.
	Points []SweepPointResult `json:"points"`
	// Regimes segments the sweep by dominant constraint.
	Regimes []RegimeResult `json:"regimes"`
	// FeasibilityLimit is the lowest infeasible rate (empty when the goal
	// holds across the whole sweep).
	FeasibilityLimit string `json:"feasibility_limit,omitempty"`
	// DominanceShare maps each constraint label to the fraction of feasible
	// rates it dominates.
	DominanceShare map[string]float64 `json:"dominance_share"`
}

// VideoSpec tunes the MPEG-like video workload of a simulate request with
// "stream": "video". Omitted fields take the library defaults (25 fps,
// 12-frame GOP, anchor distance 3, 5:3:1 weights, 20 % jitter); the resolved
// values — not the spelling — enter the cache fingerprint, so an explicit
// default and an omitted field share an entry.
type VideoSpec struct {
	// FrameRate is the display rate in frames per second.
	FrameRate float64 `json:"frame_rate,omitempty"`
	// GOPLength is the number of frames per group of pictures (N).
	GOPLength int `json:"gop_length,omitempty"`
	// IPDistance is the distance between anchor frames (M).
	IPDistance int `json:"ip_distance,omitempty"`
	// WeightI, WeightP and WeightB are the relative frame sizes per class.
	WeightI float64 `json:"weight_i,omitempty"`
	WeightP float64 `json:"weight_p,omitempty"`
	WeightB float64 `json:"weight_b,omitempty"`
	// Jitter is the relative frame-size noise in [0, 1); a pointer so an
	// explicit 0 (no jitter) is distinct from the omitted default.
	Jitter *float64 `json:"jitter,omitempty"`
}

// resolve merges the spec with the library defaults into a canonical
// workload spec at the given rate.
func (v *VideoSpec) resolve(rate units.BitRate) (workload.StreamSpec, error) {
	spec := workload.VideoSpec(rate, 0)
	if v == nil {
		return spec, nil
	}
	for name, f := range map[string]float64{
		"frame_rate": v.FrameRate, "weight_i": v.WeightI, "weight_p": v.WeightP, "weight_b": v.WeightB,
	} {
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return workload.StreamSpec{}, invalidf("video.%s must be a non-negative finite number, got %v", name, f)
		}
	}
	if v.GOPLength < 0 || v.IPDistance < 0 {
		return workload.StreamSpec{}, invalidf("video.gop_length and video.ip_distance must be non-negative")
	}
	// The generated trace holds duration * frame_rate frames, so an
	// unbounded frame rate would let one request allocate arbitrary memory.
	if v.FrameRate > MaxVideoFrameRate {
		return workload.StreamSpec{}, invalidf("video.frame_rate must not exceed %d fps, got %v", MaxVideoFrameRate, v.FrameRate)
	}
	if v.GOPLength > MaxVideoGOPLength {
		return workload.StreamSpec{}, invalidf("video.gop_length must not exceed %d, got %d", MaxVideoGOPLength, v.GOPLength)
	}
	if v.FrameRate > 0 {
		spec.FrameRate = v.FrameRate
	}
	if v.GOPLength > 0 {
		spec.GOPLength = v.GOPLength
	}
	if v.IPDistance > 0 {
		spec.IPDistance = v.IPDistance
	}
	if v.WeightI > 0 {
		spec.WeightI = v.WeightI
	}
	if v.WeightP > 0 {
		spec.WeightP = v.WeightP
	}
	if v.WeightB > 0 {
		spec.WeightB = v.WeightB
	}
	if v.Jitter != nil {
		j := *v.Jitter
		if math.IsNaN(j) || j < 0 || j >= 1 {
			return workload.StreamSpec{}, invalidf("video.jitter must be in [0, 1), got %v", j)
		}
		spec.Jitter = j
	}
	if err := spec.Validate(); err != nil {
		return workload.StreamSpec{}, invalidf("video: %v", err)
	}
	return spec, nil
}

// resolveSpec builds the seedless demand of a generated stream kind (cbr,
// vbr or video) at its nominal rate; the replica runners seed it.
func resolveSpec(kind string, rate units.BitRate, video *VideoSpec) (workload.StreamSpec, error) {
	switch kind {
	case "vbr":
		return workload.VBRSpec(rate, 0), nil
	case "video":
		return video.resolve(rate)
	}
	return workload.CBRSpec(rate), nil
}

// TraceFrameSpec is one frame of an inline trace ("stream": "trace").
type TraceFrameSpec struct {
	// Timestamp is the frame's display time (unit string or seconds).
	Timestamp Quantity `json:"timestamp"`
	// Size is the encoded frame size (unit string or bytes).
	Size Quantity `json:"size"`
	// Class is the coding class: "I", "P" (default) or "B".
	Class string `json:"class,omitempty"`
}

// MaxTraceFrames bounds the frames one inline trace may carry (the request
// body bound keeps realistic traces well below it).
const MaxTraceFrames = 65536

// MaxVideoFrameRate bounds the frame rate of a generated video workload:
// together with MaxSimSeconds and workload.MaxTraceHorizon it bounds the
// memory one simulate request can demand. 1000 fps covers every real
// display rate with a wide margin.
const MaxVideoFrameRate = 1000

// MaxVideoGOPLength bounds the GOP length of a generated video workload.
const MaxVideoGOPLength = 4096

// traceFrameKey is one frame of the canonical trace fingerprint payload:
// normalized timestamp in seconds, size in bits and the class letter, so
// unit spellings and constant timestamp offsets share a cache entry.
type traceFrameKey struct {
	T float64
	S float64
	C string
}

// resolveFrames parses and normalizes an inline trace, returning the frames
// and their canonical fingerprint form.
func resolveFrames(specs []TraceFrameSpec) ([]workload.Frame, []traceFrameKey, error) {
	if len(specs) == 0 {
		return nil, nil, invalidf(`frames is required when stream is "trace"`)
	}
	if len(specs) > MaxTraceFrames {
		return nil, nil, invalidf("at most %d frames per trace, got %d", MaxTraceFrames, len(specs))
	}
	frames := make([]workload.Frame, len(specs))
	for i, f := range specs {
		if f.Timestamp == "" {
			return nil, nil, invalidf("frames[%d].timestamp is required", i)
		}
		ts, err := f.Timestamp.duration(fmt.Sprintf("frames[%d].timestamp", i), 0)
		if err != nil {
			return nil, nil, err
		}
		size, err := f.Size.size(fmt.Sprintf("frames[%d].size", i))
		if err != nil {
			return nil, nil, err
		}
		class := workload.FrameP
		if f.Class != "" {
			class, err = workload.ParseFrameClass(f.Class)
			if err != nil {
				return nil, nil, invalidf("frames[%d]: %v", i, err)
			}
		}
		frames[i] = workload.Frame{Timestamp: ts, Class: class, Size: size}
	}
	frames, err := workload.NormalizeFrames(frames)
	if err != nil {
		return nil, nil, invalidf("%v", err)
	}
	keys := make([]traceFrameKey, len(frames))
	for i, f := range frames {
		// The offset normalization subtracts timestamps, which leaves
		// sub-nanosecond floating-point noise; quantize the canonical form
		// to nanoseconds so shifted-but-equal traces share a fingerprint.
		// The IEEE remainder is exact and, unlike a nanosecond count, cannot
		// overflow to an unmarshalable infinity on a huge timestamp.
		t := f.Timestamp.Seconds()
		keys[i] = traceFrameKey{
			T: t - math.Remainder(t, units.Nanosecond.Seconds()),
			S: f.Size.Bits(),
			C: f.Class.String(),
		}
	}
	return frames, keys, nil
}

// SimulateRequest asks for one or more discrete-event simulation runs.
type SimulateRequest struct {
	// Device selects the simulated device backend: a MEMS device
	// ("default"/"mems"/"improved", with optional durability overrides) or
	// the 1.8-inch disk baseline ("disk").
	Device DeviceSpec `json:"device,omitzero"`
	// Rate is the streaming bit rate. Must be omitted for
	// "stream": "trace", where the rate is derived from the frames (a
	// supplied rate is rejected rather than silently ignored).
	Rate Quantity `json:"rate"`
	// Buffer is the streaming-buffer capacity.
	Buffer Quantity `json:"buffer"`
	// Duration is the simulated streaming time (default "5 min").
	Duration Quantity `json:"duration,omitempty"`
	// Stream picks the stream kind: "cbr" (default), "vbr", "video" or
	// "trace".
	Stream string `json:"stream,omitempty"`
	// Video tunes the "video" stream kind (rejected for other kinds).
	Video *VideoSpec `json:"video,omitempty"`
	// Frames is the inline frame trace of the "trace" stream kind
	// (required there, rejected elsewhere).
	Frames []TraceFrameSpec `json:"frames,omitempty"`
	// BestEffort is the best-effort share of device time (default 0.05;
	// negative is rejected, 0 disables).
	BestEffort *float64 `json:"best_effort,omitempty"`
	// Seed makes the run reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Replicas runs this many seed-varied copies concurrently (default 1,
	// bounded by MaxSimReplicas).
	Replicas int `json:"replicas,omitempty"`
	// Workers bounds the per-request worker pool; excluded from the cache
	// fingerprint like SweepRequest.Workers.
	Workers int `json:"workers,omitempty"`
}

// MaxSimReplicas bounds the replicas one simulate request may ask for.
const MaxSimReplicas = 256

// MaxSimSeconds bounds the simulated time of one replica (a full day of
// streaming), so a single request cannot demand unbounded compute even when
// the daemon runs without a request deadline.
const MaxSimSeconds = 86400

// SimulateResult is one simulation run's statistics in a response.
type SimulateResult struct {
	// Seed is the seed this replica ran with.
	Seed uint64 `json:"seed"`
	// SimulatedSeconds is the covered streaming time.
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// StreamedBits is the data delivered to the application.
	StreamedBits float64 `json:"streamed_bits"`
	// RefillCycles counts completed seek-refill-shutdown cycles.
	RefillCycles int `json:"refill_cycles"`
	// Underruns counts dry integration steps (a granularity diagnostic).
	Underruns int `json:"underruns"`
	// RebufferEpisodes counts distinct playback stalls (consecutive dry
	// steps collapse into one episode).
	RebufferEpisodes int `json:"rebuffer_episodes"`
	// RebufferSeconds is the total playback time lost to stalls.
	RebufferSeconds float64 `json:"rebuffer_seconds"`
	// StartupDelaySeconds is the modelled start-up latency: positioning
	// plus one initial buffer fill at the media rate.
	StartupDelaySeconds float64 `json:"startup_delay_seconds"`
	// EnergyPerBit is the observed total per-bit energy (human-readable).
	EnergyPerBit string `json:"energy_per_bit"`
	// EnergyPerBitJoules is the per-bit energy in J/bit.
	EnergyPerBitJoules float64 `json:"energy_per_bit_j"`
	// DutyCycle is the fraction of time the device was active.
	DutyCycle float64 `json:"duty_cycle"`
	// SpringsLifetimeYears projects the observed wake-up frequency onto the
	// springs rating under the default calendar; omitted when the run saw
	// no wake-ups (an unbounded projection).
	SpringsLifetimeYears *float64 `json:"springs_lifetime_years,omitempty"`
	// ProbesLifetimeYears projects the observed write volume onto the
	// probes rating under the default calendar; omitted when the run wrote
	// nothing (an unbounded projection).
	ProbesLifetimeYears *float64 `json:"probes_lifetime_years,omitempty"`
}

// SimulateResponse is the answer to a SimulateRequest.
type SimulateResponse struct {
	// Rate echoes the parsed streaming rate.
	Rate string `json:"rate"`
	// Buffer echoes the parsed buffer capacity.
	Buffer string `json:"buffer"`
	// Runs holds one entry per replica, in seed order.
	Runs []SimulateResult `json:"runs"`
}

// BreakEvenRequest asks for the break-even buffers at one rate.
type BreakEvenRequest struct {
	// Device selects the MEMS device.
	Device DeviceSpec `json:"device,omitzero"`
	// Rate is the streaming bit rate.
	Rate Quantity `json:"rate"`
}

// BreakEvenResponse is the answer to a BreakEvenRequest: the Section III-A.1
// break-even streaming buffers of the MEMS device and the 1.8-inch disk
// baseline, and their ratio.
type BreakEvenResponse struct {
	// Rate echoes the parsed streaming rate.
	Rate string `json:"rate"`
	// MEMSBits and DiskBits are the break-even buffers in bits.
	MEMSBits float64 `json:"mems_bits"`
	DiskBits float64 `json:"disk_bits"`
	// MEMS and Disk are their human-readable forms.
	MEMS string `json:"mems"`
	Disk string `json:"disk"`
	// DiskOverMEMS is the disk-to-MEMS buffer ratio.
	DiskOverMEMS float64 `json:"disk_over_mems"`
}

// MultiStreamSpec describes one stream of a shared-device request.
type MultiStreamSpec struct {
	// Name labels the stream in results.
	Name string `json:"name"`
	// Rate is the stream's consumption/production rate.
	Rate Quantity `json:"rate"`
	// WriteFraction is the written share of this stream's traffic.
	WriteFraction float64 `json:"write_fraction"`
}

// MultiStreamRequest asks for the shared-device dimensioning of a stream mix.
type MultiStreamRequest struct {
	// Device selects the MEMS device.
	Device DeviceSpec `json:"device,omitzero"`
	// Goal is the system-wide design goal.
	Goal GoalSpec `json:"goal"`
	// Streams are the concurrent streams sharing the device.
	Streams []MultiStreamSpec `json:"streams"`
	// CountInterStreamSeeks charges inter-stream repositioning against the
	// springs rating (conservative).
	CountInterStreamSeeks bool `json:"count_inter_stream_seeks,omitempty"`
}

// MaxMultiStreams bounds the streams one multistream request may carry.
const MaxMultiStreams = 64

// MultiStreamBuffer is one stream's dimensioned buffer in a response.
type MultiStreamBuffer struct {
	// Name labels the stream.
	Name string `json:"name"`
	// BufferBits is the dimensioned buffer in bits.
	BufferBits float64 `json:"buffer_bits"`
	// Buffer is its human-readable form.
	Buffer string `json:"buffer"`
}

// MultiStreamResponse is the answer to a MultiStreamRequest.
type MultiStreamResponse struct {
	// Feasible reports whether every constraint can be met.
	Feasible bool `json:"feasible"`
	// Dominant is the constraint demanding the longest super-cycle.
	Dominant string `json:"dominant"`
	// PeriodSeconds is the dimensioned super-cycle period.
	PeriodSeconds float64 `json:"period_seconds"`
	// Period is its human-readable form.
	Period string `json:"period"`
	// Buffers holds one dimensioned buffer per stream (request order).
	Buffers []MultiStreamBuffer `json:"buffers"`
	// TotalBufferBits is the summed buffer in bits.
	TotalBufferBits float64 `json:"total_buffer_bits"`
	// TotalBuffer is its human-readable form.
	TotalBuffer string `json:"total_buffer"`
	// EnergySaving and Utilisation evaluate the plan at the dimensioned
	// period (zero when infeasible).
	EnergySaving float64 `json:"energy_saving"`
	Utilisation  float64 `json:"utilisation"`
	// LifetimeYears is the plan's projected lifetime; omitted when
	// infeasible or when no modelled component wears (unbounded).
	LifetimeYears *float64 `json:"lifetime_years,omitempty"`
	// Reasons explains infeasible constraints by label.
	Reasons map[string]string `json:"reasons,omitempty"`
}

// MultiSimStreamSpec describes one stream of a shared-device simulation
// request ("POST /v1/multisim").
type MultiSimStreamSpec struct {
	// Name labels the stream in results.
	Name string `json:"name"`
	// Stream picks the stream kind: "cbr" (default), "vbr" or "video".
	Stream string `json:"stream,omitempty"`
	// Rate is the stream's nominal bit rate.
	Rate Quantity `json:"rate"`
	// Buffer is the stream's dedicated buffer capacity.
	Buffer Quantity `json:"buffer"`
	// WriteFraction is the written share of this stream's traffic (default
	// 0.4, the Table I mix; 0 for pure playback, 1 for a recording).
	WriteFraction *float64 `json:"write_fraction,omitempty"`
	// Priority is the stream's service class under the "priority" policy:
	// higher-priority streams are refilled first within a wake-up (default 0;
	// the other policies ignore it).
	Priority int `json:"priority,omitempty"`
	// Video tunes the "video" stream kind (rejected for other kinds).
	Video *VideoSpec `json:"video,omitempty"`
}

// MultiSimRequest asks for shared-device simulation runs: several concurrent
// streams on one device under a scheduling policy.
type MultiSimRequest struct {
	// Device selects the simulated backend, as in SimulateRequest.
	Device DeviceSpec `json:"device,omitzero"`
	// Policy selects the service order within a wake-up: "round-robin" (or
	// "rr", the default) services every stream in declaration order, per the
	// paper's cycle model; "most-urgent" (or "edf") refills the buffer
	// closest to starving first; "priority" (or "prio") refills higher
	// stream priorities first, most urgent first within a class.
	Policy string `json:"policy,omitempty"`
	// Streams are the concurrent streams sharing the device.
	Streams []MultiSimStreamSpec `json:"streams"`
	// Duration is the simulated streaming time (default "5 min").
	Duration Quantity `json:"duration,omitempty"`
	// BestEffort is the best-effort share of device time (default 0.05).
	BestEffort *float64 `json:"best_effort,omitempty"`
	// Seed makes the run reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Replicas runs this many seed-varied copies concurrently (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Workers bounds the per-request worker pool; excluded from the cache
	// fingerprint like SweepRequest.Workers.
	Workers int `json:"workers,omitempty"`
}

// MultiSimStreamResult is one stream's view of a shared-device run.
type MultiSimStreamResult struct {
	// Name labels the stream (request order is preserved).
	Name string `json:"name"`
	// StreamedBits is the data this stream consumed or produced.
	StreamedBits float64 `json:"streamed_bits"`
	// RefillCycles counts this stream's buffer refills.
	RefillCycles int `json:"refill_cycles"`
	// Underruns counts this stream's dry integration steps.
	Underruns int `json:"underruns"`
	// RebufferEpisodes counts this stream's distinct playback stalls.
	RebufferEpisodes int `json:"rebuffer_episodes"`
	// RebufferSeconds is this stream's total stalled playback time.
	RebufferSeconds float64 `json:"rebuffer_seconds"`
	// StartupDelaySeconds is the modelled start-up latency of this stream
	// (the device fills every earlier stream's buffer first).
	StartupDelaySeconds float64 `json:"startup_delay_seconds"`
	// MinBufferLevelBits is the lowest fill level this stream's buffer saw.
	MinBufferLevelBits float64 `json:"min_buffer_level_bits"`
	// EnergyShare is this stream's share of the device energy: its
	// attributed seek/transfer energy plus a proportional share of the
	// shared cycle states.
	EnergyShare float64 `json:"energy_share"`
}

// MultiSimResult is one shared-device run's statistics in a response.
type MultiSimResult struct {
	// Seed is the seed this replica ran with.
	Seed uint64 `json:"seed"`
	// SimulatedSeconds is the covered streaming time.
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// WakeUps counts device super-cycles (one positioning run services every
	// stream).
	WakeUps int `json:"wake_ups"`
	// StreamedBits is the aggregate data streamed across all streams.
	StreamedBits float64 `json:"streamed_bits"`
	// Underruns is the aggregate dry-step count across all streams.
	Underruns int `json:"underruns"`
	// EnergyPerBit is the observed total per-bit energy (human-readable).
	EnergyPerBit string `json:"energy_per_bit"`
	// EnergyPerBitJoules is the per-bit energy in J/bit.
	EnergyPerBitJoules float64 `json:"energy_per_bit_j"`
	// DutyCycle is the fraction of time the device was active.
	DutyCycle float64 `json:"duty_cycle"`
	// SpringsLifetimeYears and ProbesLifetimeYears project the observed wear
	// under the default calendar; omitted for the disk backend and for
	// unbounded projections, as in SimulateResult.
	SpringsLifetimeYears *float64 `json:"springs_lifetime_years,omitempty"`
	ProbesLifetimeYears  *float64 `json:"probes_lifetime_years,omitempty"`
	// Streams holds one entry per stream, in request order.
	Streams []MultiSimStreamResult `json:"streams"`
}

// MultiSimResponse is the answer to a MultiSimRequest.
type MultiSimResponse struct {
	// Policy echoes the canonical scheduling policy.
	Policy string `json:"policy"`
	// Runs holds one entry per replica, in seed order.
	Runs []MultiSimResult `json:"runs"`
}

// resolvePolicy canonicalizes the policy spelling of a multisim request
// through the engine's single alias table.
func resolvePolicy(s string) (engine.Policy, error) {
	p, err := engine.ParsePolicy(s)
	if err != nil {
		return "", invalidf("unknown policy %q (want \"round-robin\"/\"rr\", \"most-urgent\"/\"edf\" or \"priority\"/\"prio\")", s)
	}
	return p, nil
}

// resolveMultiSimStreams parses and validates the streams of a multisim
// request into the simulator's stream descriptions.
func resolveMultiSimStreams(specs []MultiSimStreamSpec) ([]sim.MultiStream, error) {
	if len(specs) == 0 {
		return nil, invalidf("streams is required")
	}
	if len(specs) > MaxMultiStreams {
		return nil, invalidf("at most %d streams per request, got %d", MaxMultiStreams, len(specs))
	}
	streams := make([]sim.MultiStream, len(specs))
	for i, s := range specs {
		if s.Name == "" {
			return nil, invalidf("streams[%d].name is required", i)
		}
		kind := cmp.Or(s.Stream, "cbr")
		switch kind {
		case "cbr", "vbr", "video":
		default:
			return nil, invalidf("streams[%d].stream must be \"cbr\", \"vbr\" or \"video\", got %q", i, s.Stream)
		}
		if s.Video != nil && kind != "video" {
			return nil, invalidf("streams[%d]: the video object only applies to \"stream\": \"video\", not %q", i, kind)
		}
		rate, err := s.Rate.rate(fmt.Sprintf("streams[%d].rate", i))
		if err != nil {
			return nil, err
		}
		buffer, err := s.Buffer.size(fmt.Sprintf("streams[%d].buffer", i))
		if err != nil {
			return nil, err
		}
		write := 0.4
		if s.WriteFraction != nil {
			write = *s.WriteFraction
		}
		if math.IsNaN(write) || write < 0 || write > 1 {
			return nil, invalidf("streams[%d].write_fraction must be in [0, 1], got %v", i, write)
		}
		spec, err := resolveSpec(kind, rate, s.Video)
		if err != nil {
			return nil, invalidf("streams[%d]: %v", i, errMessage(err))
		}
		spec.WriteFraction = write
		streams[i] = sim.MultiStream{Name: s.Name, Spec: spec, Buffer: buffer, Priority: s.Priority}
	}
	return streams, nil
}

// errMessage unwraps a ValidationError's message for re-prefixing (other
// errors keep their full text).
func errMessage(err error) string {
	var verr *ValidationError
	if errors.As(err, &verr) {
		return verr.Msg
	}
	return err.Error()
}

// resolveStreams converts the request streams into engine stream specs.
func resolveStreams(specs []MultiStreamSpec) ([]multistream.StreamSpec, error) {
	if len(specs) == 0 {
		return nil, invalidf("streams is required")
	}
	if len(specs) > MaxMultiStreams {
		return nil, invalidf("at most %d streams per request, got %d", MaxMultiStreams, len(specs))
	}
	out := make([]multistream.StreamSpec, len(specs))
	for i, s := range specs {
		rate, err := s.Rate.rate(fmt.Sprintf("streams[%d].rate", i))
		if err != nil {
			return nil, err
		}
		if math.IsNaN(s.WriteFraction) {
			return nil, invalidf("streams[%d].write_fraction must not be NaN", i)
		}
		out[i] = multistream.StreamSpec{Name: s.Name, Rate: rate, WriteFraction: s.WriteFraction}
		if err := out[i].Validate(); err != nil {
			return nil, invalidf("streams[%d]: %v", i, err)
		}
	}
	return out, nil
}

// requirementResults converts a core dimensioning into response requirements
// in E, C, Lsp, Lpb order.
func requirementResults(d core.Dimensioning) []RequirementResult {
	out := make([]RequirementResult, 0, core.NumConstraints)
	for _, r := range d.Requirements {
		rr := RequirementResult{
			Constraint: r.Constraint.String(),
			Feasible:   r.Feasible,
			Reason:     r.Reason,
		}
		if r.Feasible && !math.IsInf(r.Buffer.Bits(), 0) {
			rr.BufferBits = r.Buffer.Bits()
			rr.Buffer = r.Buffer.String()
		}
		out = append(out, rr)
	}
	return out
}

// yearsOrNil converts a lifetime to years, or to nil when unbounded — the
// JSON field is omitted rather than conflating "never wears out" with a
// zero lifetime (and infinities would not marshal anyway).
func yearsOrNil(d units.Duration) *float64 {
	if math.IsInf(d.Seconds(), 0) {
		return nil
	}
	y := d.Years()
	return &y
}
