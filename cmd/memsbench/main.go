// Command memsbench tracks the performance trajectory of the simulation
// engine across pull requests. It runs a fixed set of named scenarios — each
// a warm simulator replaying seed-varied replicas through the reset path the
// batch APIs use — and reports wall time, allocation counts and simulation
// throughput per scenario.
//
// Usage:
//
//	memsbench [-scenario all|name,name,...] [-warmup N] [-reps N]
//	          [-format table|json|csv] [-out BENCH_19.json]
//	memsbench -check BENCH_19.json [-warmup N] [-reps N]
//	memsbench -compare BENCH_18.json BENCH_19.json
//
// The scenarios:
//
//	cbr-steady     one simulated hour of 1024 kbps CBR streaming, 64 KiB buffer
//	vbr-mobile     one simulated hour of 512 kbps VBR streaming, 48 KiB buffer
//	video-abr      one simulated hour of frame-accurate video, frames computed from each replica's seed
//	trace-replay   one simulated hour replaying a fixed 60 s frame trace (wrap-around)
//	multi-4stream  one simulated hour of four streams sharing one device
//	service-warm   a warm-cache dimensioning request through the service facade
//	fig3-panel     one Fig. 3a panel (64 rates) dimensioned on one worker
//
// Every scenario reports ns/op, B/op and allocs/op for one iteration
// (reset + full run), plus simulated hours per wall-clock second — the
// engine's headline throughput number. The steady-state scenarios are
// expected to report 0 allocs/op: the simulator is reused, the demand
// pattern re-seeds in place without storing its frames or segments, and the
// engine core carries no per-run garbage.
//
// -out writes the machine-readable report as JSON with a fixed field order,
// so committed baselines (BENCH_<pr>.json at the repository root) stay
// byte-stable across regenerations except for the timing fields. -check
// reruns the committed file's scenarios and fails (exit 1) if any scenario's
// allocs/op exceeds the committed value — allocation regressions are exact,
// no tolerance — or its timing drifts beyond a generous factor meant only to
// catch order-of-magnitude regressions on wildly different hardware.
//
// -compare runs nothing: it reads two committed reports and prints the
// per-scenario trajectory — ns/op and allocs/op, old against new, with the
// relative timing change — so the sequence of BENCH_<pr>.json files at the
// repository root can be diffed pairwise. Scenarios present in only one of
// the two reports are listed as added or removed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"memstream"
	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// options collects every knob of one memsbench invocation.
type options struct {
	scenario string
	warmup   int
	reps     int
	format   string
	out      string
	check    string
	// compare holds the two committed report paths of a -compare run
	// (empty otherwise).
	compare []string
}

// Result is one scenario's measurement. Field order is the committed JSON
// order: identity and allocation fields first (stable across regenerations
// on one code version), timing fields last.
type Result struct {
	Name          string  `json:"name"`
	Reps          int     `json:"reps"`
	Warmup        int     `json:"warmup"`
	SimHoursPerOp float64 `json:"sim_hours_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	// Timing fields; machine-dependent, exempt from byte stability.
	NsPerOp               int64   `json:"ns_per_op"`
	SimHoursPerWallSecond float64 `json:"sim_hours_per_wall_second"`
}

// Report is the full memsbench output.
type Report struct {
	Tool      string   `json:"tool"`
	Scenarios []Result `json:"scenarios"`
}

// scenario is one named benchmark: setup builds a warm iteration closure,
// simHours is the simulated time one iteration covers.
type scenario struct {
	name     string
	simHours float64
	setup    func() (func() error, error)
}

// mems returns the Table I device every scenario simulates.
func mems() device.MEMS { return device.DefaultMEMS() }

// replay is the iteration every simulator scenario times: rewind the warm
// simulator to the next replica seed and run it again.
func replay[R any](reset func(seed uint64) error, run func() (R, error)) func() error {
	seed := uint64(0)
	return func() error {
		seed++
		if err := reset(seed); err != nil {
			return err
		}
		_, err := run()
		return err
	}
}

// singleStream builds the replay over one Simulator streaming spec through
// buffer for one simulated hour on the Table I device.
func singleStream(buffer units.Size, spec workload.StreamSpec) (func() error, error) {
	s, err := sim.New(sim.Config{
		Device:   mems(),
		DRAM:     device.DefaultDRAM(),
		Buffer:   buffer,
		Spec:     spec,
		Duration: units.Hour,
		Seed:     1,
	})
	if err != nil {
		return nil, err
	}
	return replay(s.Reset, s.Run), nil
}

// scenarios returns the fixed scenario set in report order.
func scenarios() []scenario {
	return []scenario{
		{name: "cbr-steady", simHours: 1, setup: func() (func() error, error) {
			return singleStream(64*units.KiB, workload.CBRSpec(1024*units.Kbps))
		}},
		{name: "vbr-mobile", simHours: 1, setup: func() (func() error, error) {
			return singleStream(48*units.KiB, workload.VBRSpec(512*units.Kbps, 1))
		}},
		{name: "video-abr", simHours: 1, setup: func() (func() error, error) {
			// A full hour of MPEG-like frames; every replica re-seeds the
			// trace, whose frames the run computes from the seed as it
			// plays them, as an adaptive-bit-rate study does per rung.
			return singleStream(128*units.KiB, workload.VideoSpec(1024*units.Kbps, 1))
		}},
		{name: "trace-replay", simHours: 1, setup: func() (func() error, error) {
			// A fixed 60-second trace generated once and replayed with
			// wrap-around for the full hour: the pattern itself is read-only,
			// so replicas differ only in the run RNG.
			frames, err := workload.VideoSpec(1024*units.Kbps, 1).TraceFrames(units.Minute)
			if err != nil {
				return nil, err
			}
			return singleStream(128*units.KiB, workload.TraceSpec(frames))
		}},
		{name: "multi-4stream", simHours: 1, setup: func() (func() error, error) {
			s, err := sim.NewMulti(sim.MultiConfig{
				Device: mems(),
				DRAM:   device.DefaultDRAM(),
				Streams: []sim.MultiStream{
					{Name: "playback", Spec: workload.CBRSpec(1024 * units.Kbps), Buffer: (1024 * units.Kbps).Times(2 * units.Second)},
					{Name: "camera", Spec: workload.VBRSpec(512*units.Kbps, 1), Buffer: (512 * units.Kbps).Times(2 * units.Second)},
					{Name: "backup", Spec: workload.VBRSpec(256*units.Kbps, 1), Buffer: (256 * units.Kbps).Times(2 * units.Second)},
					{Name: "audio", Spec: workload.CBRSpec(128 * units.Kbps), Buffer: (128 * units.Kbps).Times(2 * units.Second)},
				},
				BestEffort: workload.NewBestEffortProcess(0.05, sim.MultiConfig{Device: device.DefaultMEMS()}.MediaRate(), 1),
				Duration:   units.Hour,
				Seed:       1,
			})
			if err != nil {
				return nil, err
			}
			return replay(s.Reset, s.Run), nil
		}},
		{name: "service-warm", simHours: 0, setup: func() (func() error, error) {
			svc := memstream.NewService(memstream.ServiceConfig{})
			req := memstream.DimensionRequest{
				Rate: "1024 kbps",
				Goal: memstream.GoalSpec{EnergySaving: 0.7, CapacityUtilisation: 0.88, Lifetime: "7 years"},
			}
			ctx := context.Background()
			if _, err := svc.Dimension(ctx, req); err != nil {
				return nil, err
			}
			return func() error {
				_, err := svc.Dimension(ctx, req)
				return err
			}, nil
		}},
		{name: "fig3-panel", simHours: 0, setup: func() (func() error, error) {
			// The analytical layer alone: one Fig. 3a panel, 64 rates
			// dimensioned in sequence, no simulation and no cache.
			ctx := context.Background()
			return func() error {
				_, err := memstream.GenerateFigure3Context(ctx, 1, memstream.DefaultDevice(), memstream.PaperGoalA(), 64)
				return err
			}, nil
		}},
	}
}

// measure runs the scenario twice. The first pass times reps warm
// iterations with the garbage collector on, as the scenario runs in
// production. The second pass (countAllocs) repeats the set-up and the
// warm-up, and counts allocations over reps iterations in windows no other
// goroutine and no collection can disturb: MemStats counts allocations
// process-wide, and a collection inside a window empties sync.Pool caches
// (encoding/json's among them), so a single timed-and-counted pass is only
// exact when nothing else happens to run.
func measure(sc scenario, warmup, reps int) (Result, error) {
	iterate, err := warmed(sc, warmup)
	if err != nil {
		return Result{}, err
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := iterate(); err != nil {
			return Result{}, fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	wall := time.Since(start)

	mallocs, bytes, err := countAllocs(sc, warmup, reps)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Name:          sc.name,
		Reps:          reps,
		Warmup:        warmup,
		SimHoursPerOp: sc.simHours,
		AllocsPerOp:   int64(mallocs) / int64(reps),
		BytesPerOp:    int64(bytes) / int64(reps),
		NsPerOp:       wall.Nanoseconds() / int64(reps),
	}
	if secs := wall.Seconds(); secs > 0 {
		res.SimHoursPerWallSecond = sc.simHours * float64(reps) / secs
	}
	return res, nil
}

// warmed sets the scenario up and runs its warm-up iterations.
func warmed(sc scenario, warmup int) (func() error, error) {
	iterate, err := sc.setup()
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", sc.name, err)
	}
	for i := 0; i < warmup; i++ {
		if err := iterate(); err != nil {
			return nil, fmt.Errorf("%s: warmup: %w", sc.name, err)
		}
	}
	return iterate, nil
}

// countAllocs sets the scenario up, warms it and returns the heap
// allocations and bytes its next reps iterations make, counted in five
// windows and taken from the one with the fewest allocations (then the
// fewest bytes). The whole pass holds one processor: sync.Pool keeps a
// per-processor private slot no other processor can take from, so the
// warm-up must fill the slot the counted windows read. The windows run with
// the collector off, so the allocator's process-wide counters see only the
// iterations and pooled buffers survive them. Each opens on a settled heap:
// the collection runs on the one processor, so the runtime's own
// post-collection work (the unique-map cleanup, the scavenger re-arming its
// timer) runs while it waits, and one yield lets any leftover finish. One
// uncounted iteration then makes the allocations the first iteration after
// a collection makes once (about four for fig3-panel and two for
// service-warm), which dividing by reps would only dilute, so a window reads
// the steady state at any -reps. The least of five windows drops the runtime's
// randomized fills of its per-call-site type-assertion caches (one draw in
// 1024 per assertion, a 48–112 B object when it hits), which land in an
// occasional window; a steady-state allocation lands in every window, so
// the count stays exact.
func countAllocs(sc scenario, warmup, reps int) (mallocs, bytes uint64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	iterate, err := warmed(sc, warmup)
	if err != nil {
		return 0, 0, err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	for window := 0; window < 5; window++ {
		runtime.GC()
		runtime.Gosched()
		if err := iterate(); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", sc.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if err := iterate(); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", sc.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		m, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if m < mallocs || (m == mallocs && b < bytes) {
			mallocs, bytes = m, b
		}
	}
	return mallocs, bytes, nil
}

// selectScenarios resolves the -scenario flag against the fixed set.
func selectScenarios(names string) ([]scenario, error) {
	all := scenarios()
	if names == "" || names == "all" {
		return all, nil
	}
	byName := make(map[string]scenario, len(all))
	for _, sc := range all {
		byName[sc.name] = sc
	}
	var out []scenario
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		sc, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (want all or a comma-separated subset of: %s)",
				name, strings.Join(scenarioNames(all), ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

// scenarioNames lists the scenario names in report order.
func scenarioNames(scs []scenario) []string {
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.name
	}
	return names
}

// renderJSON writes the report with a fixed field order and a trailing
// newline, the committed-baseline form.
func renderJSON(w io.Writer, r Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// renderCSV writes one header line and one row per scenario.
func renderCSV(w io.Writer, r Report) error {
	if _, err := fmt.Fprintln(w, "name,reps,warmup,sim_hours_per_op,allocs_per_op,bytes_per_op,ns_per_op,sim_hours_per_wall_second"); err != nil {
		return err
	}
	for _, s := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%g,%d,%d,%d,%.1f\n",
			s.Name, s.Reps, s.Warmup, s.SimHoursPerOp, s.AllocsPerOp, s.BytesPerOp, s.NsPerOp, s.SimHoursPerWallSecond); err != nil {
			return err
		}
	}
	return nil
}

// renderTable writes the human-readable summary.
func renderTable(w io.Writer, r Report) error {
	if _, err := fmt.Fprintf(w, "%-14s %12s %12s %12s %14s\n", "scenario", "ns/op", "B/op", "allocs/op", "sim-h/wall-s"); err != nil {
		return err
	}
	for _, s := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "%-14s %12d %12d %12d %14.1f\n",
			s.Name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, s.SimHoursPerWallSecond); err != nil {
			return err
		}
	}
	return nil
}

// timingTolerance is the factor a -check run's timing may exceed the
// committed baseline by before it counts as a regression. Deliberately very
// generous: the committed numbers come from one machine, the checking run
// from another, and only order-of-magnitude collapses should fail CI.
const timingTolerance = 25

// check reruns the committed report's scenarios and compares: allocation
// counts must not exceed the committed values at all, timing only within
// timingTolerance.
func check(w io.Writer, o options) error {
	committed, err := readReport(o.check)
	if err != nil {
		return err
	}
	scs, err := selectScenarios(strings.Join(baselineNames(committed), ","))
	if err != nil {
		return fmt.Errorf("%s: %w", o.check, err)
	}
	var violations []string
	for i, sc := range scs {
		base := committed.Scenarios[i]
		got, err := measure(sc, o.warmup, o.reps)
		if err != nil {
			return err
		}
		status := "ok"
		switch {
		case got.SimHoursPerOp != base.SimHoursPerOp:
			status = fmt.Sprintf("FAIL sim_hours_per_op %g, committed %g — scenario definition drifted; regenerate the baseline",
				got.SimHoursPerOp, base.SimHoursPerOp)
		case got.AllocsPerOp > base.AllocsPerOp:
			status = fmt.Sprintf("FAIL allocs/op %d exceeds committed %d", got.AllocsPerOp, base.AllocsPerOp)
		case got.BytesPerOp > 2*base.BytesPerOp+4096:
			// Bytes follow allocs but jitter with map growth and interface
			// boxing; only a clear blow-up fails.
			status = fmt.Sprintf("FAIL B/op %d far exceeds committed %d", got.BytesPerOp, base.BytesPerOp)
		case base.NsPerOp > 0 && got.NsPerOp > timingTolerance*base.NsPerOp:
			status = fmt.Sprintf("FAIL ns/op %d exceeds committed %d by more than %dx", got.NsPerOp, base.NsPerOp, timingTolerance)
		}
		fmt.Fprintf(w, "%-14s %s\n", sc.name, status)
		if status != "ok" {
			violations = append(violations, sc.name)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d scenario(s) regressed against %s: %s", len(violations), o.check, strings.Join(violations, ", "))
	}
	fmt.Fprintf(w, "all %d scenarios within budget of %s\n", len(scs), o.check)
	return nil
}

// readReport loads one committed JSON report.
func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Scenarios) == 0 {
		return Report{}, fmt.Errorf("%s: no scenarios in committed report", path)
	}
	return r, nil
}

// compare prints the per-scenario trajectory between two committed reports:
// allocs/op and ns/op old against new, with the relative timing change. It
// is a reading aid, not a gate — -check is the gate — so mismatched
// scenario sets are reported, not failed.
func compare(w io.Writer, oldPath, newPath string) error {
	oldR, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newR, err := readReport(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]Result, len(oldR.Scenarios))
	for _, s := range oldR.Scenarios {
		oldBy[s.Name] = s
	}
	fmt.Fprintf(w, "%-14s %12s %12s %9s %12s %12s %8s\n",
		"scenario", "old allocs", "new allocs", "Δallocs", "old ns/op", "new ns/op", "ns/op")
	for _, n := range newR.Scenarios {
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(w, "%-14s %12s %12d %9s %12s %12d %8s\n",
				n.Name, "-", n.AllocsPerOp, "added", "-", n.NsPerOp, "-")
			continue
		}
		delete(oldBy, n.Name)
		timing := "-"
		if o.NsPerOp > 0 {
			timing = fmt.Sprintf("%+.1f%%", 100*(float64(n.NsPerOp)/float64(o.NsPerOp)-1))
		}
		fmt.Fprintf(w, "%-14s %12d %12d %+9d %12d %12d %8s\n",
			n.Name, o.AllocsPerOp, n.AllocsPerOp, n.AllocsPerOp-o.AllocsPerOp, o.NsPerOp, n.NsPerOp, timing)
	}
	// Keep the removed scenarios in the old report's order, not map order.
	for _, o := range oldR.Scenarios {
		if _, removed := oldBy[o.Name]; removed {
			fmt.Fprintf(w, "%-14s %12d %12s %9s %12d %12s %8s\n",
				o.Name, o.AllocsPerOp, "-", "removed", o.NsPerOp, "-", "-")
		}
	}
	return nil
}

// baselineNames lists the committed report's scenario names in order.
func baselineNames(r Report) []string {
	names := make([]string, len(r.Scenarios))
	for i, s := range r.Scenarios {
		names[i] = s.Name
	}
	return names
}

// run executes one invocation, writing human output to w.
func run(w io.Writer, o options) error {
	if o.reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", o.reps)
	}
	if o.warmup < 0 {
		return fmt.Errorf("-warmup must not be negative, got %d", o.warmup)
	}
	if len(o.compare) > 0 {
		if len(o.compare) != 2 {
			return fmt.Errorf("-compare needs exactly two committed reports, got %d", len(o.compare))
		}
		if o.check != "" {
			return fmt.Errorf("-compare and -check are mutually exclusive")
		}
		return compare(w, o.compare[0], o.compare[1])
	}
	if o.check != "" {
		return check(w, o)
	}
	scs, err := selectScenarios(o.scenario)
	if err != nil {
		return err
	}
	report := Report{Tool: "memsbench"}
	for _, sc := range scs {
		res, err := measure(sc, o.warmup, o.reps)
		if err != nil {
			return err
		}
		report.Scenarios = append(report.Scenarios, res)
	}
	switch o.format {
	case "json":
		if err := renderJSON(w, report); err != nil {
			return err
		}
	case "csv":
		if err := renderCSV(w, report); err != nil {
			return err
		}
	case "table", "":
		if err := renderTable(w, report); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q (want table, json or csv)", o.format)
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := renderJSON(f, report); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.scenario, "scenario", "all", "scenarios to run: all or a comma-separated subset")
	flag.IntVar(&o.warmup, "warmup", 1, "untimed warm-up iterations per scenario")
	flag.IntVar(&o.reps, "reps", 3, "timed iterations per scenario")
	flag.StringVar(&o.format, "format", "table", "output format: table, json or csv")
	flag.StringVar(&o.out, "out", "", "also write the JSON report to this file")
	flag.StringVar(&o.check, "check", "", "compare against a committed JSON report instead of printing one")
	doCompare := flag.Bool("compare", false, "print the trajectory between two committed JSON reports (old new) without running anything")
	flag.Parse()
	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "memsbench: -compare needs exactly two committed reports, got %d\n", flag.NArg())
			os.Exit(1)
		}
		o.compare = flag.Args()
	} else if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "memsbench: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		os.Exit(1)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "memsbench:", err)
		os.Exit(1)
	}
}
