// Command memssim runs the discrete-event simulator of the MEMS + DRAM
// streaming architecture and reports energy, lifetime projections and buffer
// health. With -validate it compares the simulation against the analytical
// model at the same operating point.
//
// With -replicas N it runs N seed-varied copies of the simulation
// concurrently, replica i at seed -seed+i in every stochastic input, and
// reports the spread of the observed metrics instead of a single run's
// detail.
//
// Usage:
//
//	memssim -rate 1024kbps -buffer 20KiB -duration 5min [-stream cbr|vbr|video|trace]
//	        [-trace frames.txt] [-dump-trace frames.txt] [-device mems|improved|disk]
//	        [-besteffort 0.05] [-ber 1e-4] [-validate] [-replicas 8]
//	memssim -streams name=playback,rate=1024kbps,buffer=128KiB,write=0 \
//	        -streams name=camera,kind=vbr,rate=512kbps,buffer=64KiB,write=1 \
//	        [-policy rr|edf|prio] [-duration 5min] [-besteffort 0.05]
//
// With one or more repeatable -streams flags memssim simulates all the named
// streams concurrently on one shared device: the device wakes when any
// buffer falls to its wake level, repositions to each stream region in turn
// (under -policy round-robin/"rr", the default, in declaration order; under
// most-urgent/"edf", emptiest-first; under priority/"prio", highest prio=
// first, emptiest-first within a class), refills it at the media rate and
// shuts down again. Each -streams value is a comma-separated k=v list with
// the keys name, kind (cbr|vbr|video|trace), rate, buffer, write (written
// share), prio (service class) and
// trace (frame file, kind trace only). The single-stream flags -stream,
// -trace, -dump-trace, -validate, -ber and -replicas do not combine with it.
// The streams are seeded from -seed exactly as /v1/multisim seeds them.
//
// -stream selects the workload: constant bit rate ("cbr", the default), the
// segment-wise variable-bit-rate model ("vbr"), an MPEG-like frame-accurate
// video trace generated for the full run duration ("video"), or a
// user-supplied frame trace ("trace", read from -trace in the
// one-frame-per-line format "<timestamp> <size> [class]"). -dump-trace
// writes the frame trace a video or trace run replays, so generated traces
// round-trip through -stream trace.
//
// -device selects the simulated backend: the Table I MEMS device ("mems",
// the default), the improved-durability MEMS scenario ("improved"), or the
// 1.8-inch disk baseline ("disk" — remember a megabyte-scale -buffer, since
// the buffer must cover the drain over the drive's seconds-long spin-up).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"memstream"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// streamFlags collects the repeatable -streams values.
type streamFlags []string

// String joins the collected specs for flag's usage output.
func (s *streamFlags) String() string { return strings.Join(*s, "; ") }

// Set appends one -streams value.
func (s *streamFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// options collects every knob of one memssim invocation.
type options struct {
	rate, buffer, duration string
	stream                 string
	traceFile              string
	dumpTrace              string
	bestEffort, ber        float64
	device                 string
	seed                   uint64
	validate               bool
	replicas               int
	streams                streamFlags
	policy                 string
}

func main() {
	var o options
	flag.StringVar(&o.rate, "rate", "1024kbps", "streaming bit rate (ignored for -stream trace)")
	flag.StringVar(&o.buffer, "buffer", "20KiB", "streaming buffer capacity")
	flag.StringVar(&o.duration, "duration", "5min", "simulated streaming time")
	flag.StringVar(&o.stream, "stream", "", "stream workload: cbr, vbr, video or trace (default cbr)")
	flag.StringVar(&o.traceFile, "trace", "", "frame-trace file for -stream trace (one \"<timestamp> <size> [class]\" per line)")
	flag.StringVar(&o.dumpTrace, "dump-trace", "", "write the replayed frame trace of a video/trace run to this file")
	flag.Float64Var(&o.bestEffort, "besteffort", 0.05, "best-effort share of device time (0 disables)")
	flag.Float64Var(&o.ber, "ber", 0, "raw media bit-error rate exercised through the ECC codec")
	flag.StringVar(&o.device, "device", "", "device backend: mems, improved or disk (default mems)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.validate, "validate", false, "compare the simulation against the analytical model")
	flag.IntVar(&o.replicas, "replicas", 1, "run this many seed-varied replicas concurrently and report the spread")
	flag.Var(&o.streams, "streams", "add one stream of a shared-device simulation (repeatable): name=...,kind=cbr|vbr|video|trace,rate=...,buffer=...,write=...,prio=...,trace=file")
	flag.StringVar(&o.policy, "policy", "", "shared-device scheduling policy: round-robin/rr (default), most-urgent/edf or priority/prio (needs -streams)")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "memssim:", err)
		os.Exit(1)
	}
}

// resolveDevice turns the -device flag into a canonical backend name,
// rejecting unknown selections instead of silently defaulting.
func resolveDevice(name string) (string, error) {
	if name == "" {
		name = "mems"
	}
	switch name {
	case "mems", "improved", "disk":
		return name, nil
	default:
		return "", fmt.Errorf("unknown -device %q (want mems, improved or disk)", name)
	}
}

// resolveStream turns -stream and the -trace file into a canonical workload
// kind, mirroring resolveDevice's strictness: a trace file selects (or
// requires) the trace kind.
func resolveStream(name, traceFile string) (memstream.SimSpecKind, error) {
	if name == "" {
		name = "cbr"
		if traceFile != "" {
			name = "trace"
		}
	}
	switch name {
	case "cbr", "vbr", "video", "trace":
	default:
		return "", fmt.Errorf("unknown -stream %q (want cbr, vbr, video or trace)", name)
	}
	if name == "trace" && traceFile == "" {
		return "", fmt.Errorf("-stream trace needs a -trace file")
	}
	if name != "trace" && traceFile != "" {
		return "", fmt.Errorf("-trace only applies to -stream trace, not -stream %s", name)
	}
	return memstream.SimSpecKind(name), nil
}

// loadTrace reads and normalizes a frame-trace file.
func loadTrace(path string) ([]memstream.Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	frames, err := memstream.ParseFrameTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return frames, nil
}

// resolvePolicy maps the -policy flag onto a scheduling policy through the
// library's single alias table.
func resolvePolicy(s string) (memstream.SchedulingPolicy, error) {
	p, err := memstream.ParseSchedulingPolicy(s)
	if err != nil {
		return "", fmt.Errorf("unknown -policy %q (want round-robin/rr, most-urgent/edf or priority/prio)", s)
	}
	return p, nil
}

// parseStreamSpec parses one -streams value: a comma-separated k=v list with
// the keys name, kind, rate, buffer, write, prio and trace.
func parseStreamSpec(value string, index int) (memstream.SimMultiStream, error) {
	var (
		name      = fmt.Sprintf("stream%d", index)
		kind      = "cbr"
		rateStr   string
		bufferStr string
		writeStr  string
		prioStr   string
		traceFile string
		errf      = func(format string, args ...any) (memstream.SimMultiStream, error) {
			return memstream.SimMultiStream{}, fmt.Errorf("-streams %q: "+format, append([]any{value}, args...)...)
		}
	)
	for _, field := range strings.Split(value, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return errf("field %q is not key=value", field)
		}
		switch k {
		case "name":
			name = v
		case "kind":
			kind = v
		case "rate":
			rateStr = v
		case "buffer":
			bufferStr = v
		case "write":
			writeStr = v
		case "prio":
			prioStr = v
		case "trace":
			traceFile = v
		default:
			return errf("unknown key %q (want name, kind, rate, buffer, write, prio or trace)", k)
		}
	}
	if bufferStr == "" {
		return errf("buffer is required")
	}
	buffer, err := units.ParseSize(bufferStr)
	if err != nil {
		return errf("%v", err)
	}
	var rate memstream.BitRate
	if kind != "trace" {
		if rateStr == "" {
			return errf("rate is required for kind %s", kind)
		}
		if rate, err = units.ParseBitRate(rateStr); err != nil {
			return errf("%v", err)
		}
	} else if rateStr != "" {
		return errf("rate does not apply to kind trace (the frames define it)")
	}
	var spec memstream.SimStreamSpec
	switch kind {
	case "cbr":
		spec = memstream.CBRSpec(rate)
	case "vbr":
		spec = memstream.VBRSpec(rate, 0)
	case "video":
		spec = memstream.VideoSpec(rate, 0)
	case "trace":
		if traceFile == "" {
			return errf("kind trace needs a trace=<file> field")
		}
		frames, err := loadTrace(traceFile)
		if err != nil {
			return errf("%v", err)
		}
		spec = memstream.TraceSpec(frames)
	default:
		return errf("unknown kind %q (want cbr, vbr, video or trace)", kind)
	}
	if traceFile != "" && kind != "trace" {
		return errf("trace only applies to kind trace, not %s", kind)
	}
	if writeStr != "" {
		write, err := strconv.ParseFloat(writeStr, 64)
		if err != nil || write < 0 || write > 1 {
			return errf("write must be a number in [0, 1], got %q", writeStr)
		}
		spec.WriteFraction = write
	}
	prio := 0
	if prioStr != "" {
		prio, err = strconv.Atoi(prioStr)
		if err != nil {
			return errf("prio must be an integer, got %q", prioStr)
		}
	}
	return memstream.SimMultiStream{Name: name, Spec: spec, Buffer: buffer, Priority: prio}, nil
}

// runMulti simulates the -streams set sharing one device and reports the
// aggregate cycle statistics plus a per-stream health table.
func runMulti(w io.Writer, o options) error {
	// The shared-device path owns its flag set; reject the single-stream
	// knobs instead of silently ignoring them.
	switch {
	case o.stream != "":
		return fmt.Errorf("-stream selects the single-stream workload; inside -streams use kind=")
	case o.traceFile != "":
		return fmt.Errorf("-trace selects the single-stream trace; inside -streams use trace=<file>")
	case o.dumpTrace != "":
		return fmt.Errorf("-dump-trace does not apply to -streams runs")
	case o.validate:
		return fmt.Errorf("-validate compares a single stream against the analytical model; it does not support -streams")
	case o.ber > 0:
		return fmt.Errorf("-ber applies only to single-stream runs")
	case o.replicas != 1:
		return fmt.Errorf("-replicas applies only to single-stream runs")
	}
	policy, err := resolvePolicy(o.policy)
	if err != nil {
		return err
	}
	duration, err := units.ParseDuration(o.duration)
	if err != nil {
		return err
	}
	deviceName, err := resolveDevice(o.device)
	if err != nil {
		return err
	}
	dev := memstream.DefaultDevice()
	var backend memstream.SimBackend
	switch deviceName {
	case "improved":
		dev = memstream.ImprovedDevice()
	case "disk":
		backend = memstream.DiskBackend(memstream.DefaultDisk())
	}
	cfg := memstream.SimMultiConfig{
		Device:   dev,
		Backend:  backend,
		DRAM:     memstream.DefaultDRAM(),
		Policy:   policy,
		Duration: duration,
	}
	for i, value := range o.streams {
		stream, err := parseStreamSpec(value, i)
		if err != nil {
			return err
		}
		cfg.Streams = append(cfg.Streams, stream)
	}
	// A zero share leaves the disabled zero process; any other value,
	// negative or NaN included, goes to the simulator's validation.
	if o.bestEffort != 0 {
		cfg.BestEffort = memstream.NewBestEffortProcess(o.bestEffort, cfg.MediaRate(), o.seed)
	}
	// Reset seeds every stream from -seed by the library's multi-stream
	// convention, as /v1/multisim does, so both answer a question alike.
	s, err := sim.NewMulti(cfg)
	if err != nil {
		return err
	}
	if err := s.Reset(o.seed); err != nil {
		return err
	}
	stats, err := s.Run()
	if err != nil {
		return err
	}

	d := stats.Device
	fmt.Fprintf(w, "simulated %v of %d concurrent streams on one shared device (%s scheduling)\n",
		d.SimulatedTime, len(cfg.Streams), policy)
	fmt.Fprintf(w, "device: %d wake-ups (%.2f per second), duty cycle %.1f%%\n",
		d.RefillCycles, d.RefillsPerSecond(), 100*d.DutyCycle())
	fmt.Fprintf(w, "energy: device %v, DRAM %v, per-bit %v\n", d.DeviceEnergy(), d.DRAMEnergy, d.PerBitEnergy())
	fmt.Fprintf(w, "  %-18s %-12s %-8s %-10s %-10s %-10s %s\n",
		"stream", "streamed", "refills", "underruns", "rebuffers", "startup", "energy share")
	for i, st := range stats.Streams {
		fmt.Fprintf(w, "  %-18s %-12v %-8d %-10d %-10d %-10v %.1f%%\n",
			st.Name, st.StreamedBits, st.RefillCycles, st.Underruns,
			st.RebufferEpisodes, st.StartupDelay, 100*stats.EnergyShare(i))
	}
	if deviceName == "disk" {
		fmt.Fprintln(w, "wear projections: n/a (springs/probes wear is MEMS-specific)")
	} else {
		cal := memstream.DefaultCalendar()
		fmt.Fprintf(w, "springs projection: %.1f years at the %s calendar\n",
			d.ProjectedSpringsLifetime(dev, cal).Years(), cal)
		fmt.Fprintf(w, "probes projection:  %.1f years\n", d.ProjectedProbesLifetime(dev, cal).Years())
	}
	return nil
}

func run(w io.Writer, o options) error {
	if len(o.streams) > 0 {
		return runMulti(w, o)
	}
	if o.policy != "" {
		return fmt.Errorf("-policy needs a -streams set")
	}
	rate, err := units.ParseBitRate(o.rate)
	if err != nil {
		return err
	}
	buffer, err := units.ParseSize(o.buffer)
	if err != nil {
		return err
	}
	duration, err := units.ParseDuration(o.duration)
	if err != nil {
		return err
	}
	deviceName, err := resolveDevice(o.device)
	if err != nil {
		return err
	}
	kind, err := resolveStream(o.stream, o.traceFile)
	if err != nil {
		return err
	}
	var traceFrames []memstream.Frame
	if kind == memstream.SpecTrace {
		if traceFrames, err = loadTrace(o.traceFile); err != nil {
			return err
		}
	}
	dev := memstream.DefaultDevice()
	var backend memstream.SimBackend
	switch deviceName {
	case "improved":
		dev = memstream.ImprovedDevice()
	case "disk":
		if o.validate {
			return fmt.Errorf("-validate compares against the analytical MEMS model; it does not support -device disk")
		}
		backend = memstream.DiskBackend(memstream.DefaultDisk())
	}
	// The stochastic kinds and the best-effort process draw from -seed. The
	// video trace horizon follows the run duration (capped at
	// memstream.MaxTraceHorizon, wrapping beyond), so a 5-minute run
	// simulates 5 minutes of distinct frames — not a replayed 60 s window.
	var spec memstream.SimStreamSpec
	switch kind {
	case memstream.SpecVBR:
		spec = memstream.VBRSpec(rate, o.seed)
	case memstream.SpecVideo:
		spec = memstream.VideoSpec(rate, o.seed)
	case memstream.SpecTrace:
		spec = memstream.TraceSpec(traceFrames)
	default:
		spec = memstream.CBRSpec(rate)
	}
	cfg := memstream.SimConfig{
		Device:       dev,
		Backend:      backend,
		DRAM:         memstream.DefaultDRAM(),
		Buffer:       buffer,
		Spec:         spec,
		Duration:     duration,
		BitErrorRate: o.ber,
		Seed:         o.seed,
	}
	if o.bestEffort != 0 {
		cfg.BestEffort = memstream.NewBestEffortProcess(o.bestEffort, cfg.MediaRate(), o.seed)
	}

	// Reject incoherent flag combinations before producing any output or
	// artifacts (the -dump-trace file included).
	if o.replicas < 1 {
		return fmt.Errorf("replicas must be at least 1, got %d", o.replicas)
	}
	if o.validate {
		if o.replicas > 1 {
			return fmt.Errorf("-validate compares a single run against the model; drop it or use -replicas 1")
		}
		if kind == memstream.SpecTrace {
			return fmt.Errorf("-validate builds the analytical model at -rate, which -stream trace ignores; drop one of them")
		}
	}

	if o.dumpTrace != "" {
		frames, err := spec.TraceFrames(duration)
		if err != nil {
			return fmt.Errorf("-dump-trace: %w", err)
		}
		f, err := os.Create(o.dumpTrace)
		if err != nil {
			return err
		}
		if err := memstream.WriteFrameTrace(f, frames); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d frames to %s\n", len(frames), o.dumpTrace)
	}

	// Reports name the rate the run actually streams at: the nominal -rate,
	// or the trace's own average (where -rate is ignored).
	reportRate := rate
	if kind == memstream.SpecTrace {
		reportRate = spec.AverageRate()
	}
	if o.replicas > 1 {
		batch, err := sim.RunReplicas(context.Background(), 0, cfg, o.seed, o.replicas)
		if err != nil {
			return err
		}
		return reportReplicas(w, o.seed, batch, reportRate, buffer)
	}

	stats, err := memstream.Simulate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulated %v of %s streaming at %v through a %v buffer\n",
		stats.SimulatedTime, kind, reportRate, buffer)
	fmt.Fprintf(w, "refill cycles:        %d (%.2f per second)\n", stats.RefillCycles, stats.RefillsPerSecond())
	fmt.Fprintf(w, "streamed data:        %v (underruns: %d, min buffer level: %v)\n",
		stats.StreamedBits, stats.Underruns, stats.MinBufferLevel)
	fmt.Fprintf(w, "playback:             startup delay %v, %d rebuffer episodes (%v stalled)\n",
		stats.StartupDelay, stats.RebufferEpisodes, stats.RebufferTime)
	fmt.Fprintf(w, "best-effort traffic:  %d requests, %v\n", stats.BestEffortRequests, stats.BestEffortBits)
	fmt.Fprintf(w, "device energy:        %v (average power %v, duty cycle %.1f%%)\n",
		stats.DeviceEnergy(), stats.AverageDevicePower(), 100*stats.DutyCycle())
	fmt.Fprintf(w, "DRAM energy:          %v\n", stats.DRAMEnergy)
	fmt.Fprintf(w, "per-bit energy:       %v\n", stats.PerBitEnergy())
	if deviceName == "disk" {
		fmt.Fprintln(w, "wear projections:     n/a (springs/probes wear is MEMS-specific)")
	} else {
		cal := memstream.DefaultCalendar()
		fmt.Fprintf(w, "springs projection:   %.1f years at the %s calendar\n",
			stats.ProjectedSpringsLifetime(dev, cal).Years(), cal)
		fmt.Fprintf(w, "probes projection:    %.1f years\n", stats.ProjectedProbesLifetime(dev, cal).Years())
	}
	if o.ber > 0 {
		fmt.Fprintf(w, "ECC activity:         %d corrected, %d uncorrectable\n",
			stats.ECCCorrected, stats.ECCUncorrectable)
	}

	if !o.validate {
		return nil
	}

	fmt.Fprintln(w, "\nvalidation against the analytical model:")
	wl := memstream.DefaultWorkload()
	wl.BestEffortFraction = o.bestEffort
	model, err := memstream.NewWithOptions(dev, rate, memstream.Options{Workload: &wl})
	if err != nil {
		return err
	}
	pt, err := model.At(buffer)
	if err != nil {
		return err
	}
	simNJ := stats.PerBitEnergy().NanojoulesPerBit()
	modelNJ := pt.EnergyPerBit.NanojoulesPerBit()
	fmt.Fprintf(w, "  per-bit energy:   sim %.2f nJ/b vs model %.2f nJ/b (%+.1f%%)\n",
		simNJ, modelNJ, 100*(simNJ-modelNJ)/modelNJ)
	simSprings := stats.ProjectedSpringsLifetime(dev, memstream.DefaultCalendar()).Years()
	modelSprings := pt.SpringsLifetime.Years()
	fmt.Fprintf(w, "  springs lifetime: sim %.2f years vs model %.2f years (%+.1f%%)\n",
		simSprings, modelSprings, 100*(simSprings-modelSprings)/modelSprings)
	simProbes := stats.ProjectedProbesLifetime(dev, memstream.DefaultCalendar()).Years()
	modelProbes := pt.ProbesLifetime.Years()
	fmt.Fprintf(w, "  probes lifetime:  sim %.2f years vs model %.2f years (%+.1f%%)\n",
		simProbes, modelProbes, 100*(simProbes-modelProbes)/modelProbes)
	if o.bestEffort > 0 {
		fmt.Fprintln(w, "  note: Eq. 6 accounts only streaming writes; the simulator also charges")
		fmt.Fprintln(w, "        best-effort writes to probe wear, so its probes projection is lower.")
	}
	return nil
}

// reportReplicas summarises a seed-varied batch whose replica i ran at seed
// base+i: one line per replica plus the spread of the headline metrics.
func reportReplicas(w io.Writer, base uint64, batch []*memstream.SimStats,
	rate memstream.BitRate, buffer memstream.Size) error {

	fmt.Fprintf(w, "ran %d seed-varied replicas at %v through a %v buffer (concurrent batch)\n",
		len(batch), rate, buffer)
	fmt.Fprintf(w, "  %-8s %-6s %-8s %-10s %s\n", "replica", "seed", "refills", "underruns", "per-bit energy")
	minNJ, maxNJ, sumNJ := 0.0, 0.0, 0.0
	for i, stats := range batch {
		nj := stats.PerBitEnergy().NanojoulesPerBit()
		if i == 0 || nj < minNJ {
			minNJ = nj
		}
		if i == 0 || nj > maxNJ {
			maxNJ = nj
		}
		sumNJ += nj
		fmt.Fprintf(w, "  %-8d %-6d %-8d %-10d %.2f nJ/b\n",
			i, base+uint64(i), stats.RefillCycles, stats.Underruns, nj)
	}
	fmt.Fprintf(w, "per-bit energy spread: mean %.2f, min %.2f, max %.2f nJ/b\n",
		sumNJ/float64(len(batch)), minNJ, maxNJ)
	return nil
}
