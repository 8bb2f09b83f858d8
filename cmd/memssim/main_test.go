package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memstream"
)

// opts returns the flag defaults, overridden by mutate.
func opts(mutate func(*options)) options {
	o := options{
		rate:       "1024kbps",
		buffer:     "20KiB",
		duration:   "30s",
		bestEffort: 0.05,
		seed:       1,
		replicas:   1,
	}
	if mutate != nil {
		mutate(&o)
	}
	return o
}

func TestRunBasic(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"refill cycles", "per-bit energy", "springs projection", "probes projection", "playback:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "validation") {
		t.Error("validation printed without -validate")
	}
}

func TestRunValidate(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) { o.bestEffort = 0; o.validate = true }))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "validation against the analytical model") {
		t.Fatalf("validation section missing:\n%s", out)
	}
	if strings.Contains(out, "note: Eq. 6") {
		t.Error("best-effort note printed although best-effort traffic was disabled")
	}
}

func TestRunValidateWithBestEffortNote(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.validate = true })); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "note: Eq. 6") {
		t.Error("best-effort wear note missing")
	}
}

func TestRunVBRWithErrors(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) {
		o.buffer = "45KiB"
		o.stream = "vbr"
		o.ber = 1e-4
		o.seed = 7
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ECC activity") {
		t.Error("ECC line missing for a run with a bit-error rate")
	}
}

func TestRunImprovedDevice(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, opts(func(o *options) { o.bestEffort = 0; o.device = "improved" })); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "springs projection") {
		t.Error("improved-device run produced no projections")
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.rate = "oops" },
		func(o *options) { o.buffer = "oops" },
		func(o *options) { o.duration = "oops" },
		func(o *options) { o.bestEffort = -0.2 },
		func(o *options) { o.bestEffort = math.NaN() },
	}
	for i, mutate := range cases {
		if err := run(&bytes.Buffer{}, opts(mutate)); err == nil {
			t.Errorf("bogus inputs case %d accepted", i)
		}
	}
	// A buffer too small for the seek time must surface the simulator error.
	err := run(&bytes.Buffer{}, opts(func(o *options) { o.rate = "4096kbps"; o.buffer = "1000bit"; o.bestEffort = 0 }))
	if err == nil {
		t.Error("undersized buffer accepted")
	}
}

func TestRunVideoTrace(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) { o.buffer = "64KiB"; o.stream = "video"; o.seed = 3 }))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "refill cycles") {
		t.Errorf("video-trace run produced no statistics:\n%s", out)
	}
	if !strings.Contains(out, "underruns: 0") {
		t.Errorf("video trace through a 64 KiB buffer should not underrun:\n%s", out)
	}
	if !strings.Contains(out, "of video streaming") {
		t.Errorf("report does not name the video workload:\n%s", out)
	}
}

// TestRunVideoCoversFullDuration is the CLI regression for the fixed
// 60-second horizon bug: a 5-minute video run must simulate the full 5
// minutes of a 5-minute trace (the spec derives the horizon from
// -duration), not silently replay a 60-second window five times.
func TestRunVideoCoversFullDuration(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) {
		o.buffer = "64KiB"
		o.duration = "5min"
		o.stream = "video"
		o.seed = 3
		o.dumpTrace = filepath.Join(t.TempDir(), "trace.txt")
	}))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "simulated 300 s of video streaming") {
		t.Errorf("run did not cover the full 5 minutes:\n%s", out)
	}
	// The dumped trace must cover the full duration: 25 fps * 300 s frames.
	if !strings.Contains(out, "wrote 7500 frames") {
		t.Errorf("trace does not span the 5-minute run (want 7500 frames):\n%s", out)
	}
}

// TestRunTraceRoundTrip dumps the trace of a video run and replays it
// through -stream trace: the replay must parse, simulate cleanly and report
// the same streamed volume (the workloads are frame-identical).
func TestRunTraceRoundTrip(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "frames.txt")
	var generated bytes.Buffer
	err := run(&generated, opts(func(o *options) {
		o.buffer = "64KiB"
		o.stream = "video"
		o.seed = 3
		o.dumpTrace = traceFile
	}))
	if err != nil {
		t.Fatal(err)
	}
	var replayed bytes.Buffer
	err = run(&replayed, opts(func(o *options) {
		o.buffer = "64KiB"
		o.stream = "trace"
		o.traceFile = traceFile
		o.seed = 3
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Compare the delivered volume and the underrun count. The min buffer
	// level is not bit-stable across the round trip: the trace path
	// recomputes per-frame rates from the parsed timestamps, whose
	// ulp-level interval differences shift which cycle hits the minimum.
	pick := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "streamed data:") {
				if i := strings.Index(line, ", min buffer"); i >= 0 {
					return line[:i]
				}
				return line
			}
		}
		return ""
	}
	genLine := pick(generated.String())
	repLine := pick(replayed.String())
	if genLine == "" || genLine != repLine {
		t.Errorf("round-tripped trace diverged:\nvideo: %s\ntrace: %s", genLine, repLine)
	}
}

func TestRunTraceFromFile(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "frames.txt")
	trace := "# two-frame loop\n0 6250bit I\n40ms 4000bit B\n"
	if err := os.WriteFile(traceFile, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) { o.buffer = "64KiB"; o.stream = "trace"; o.traceFile = traceFile }))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "of trace streaming") {
		t.Errorf("trace run report wrong:\n%s", buf.String())
	}
	// The replicas header must report the trace's own average rate, not the
	// ignored nominal -rate.
	var reps bytes.Buffer
	err = run(&reps, opts(func(o *options) {
		o.buffer = "64KiB"
		o.stream = "trace"
		o.traceFile = traceFile
		o.replicas = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(reps.String(), "1.02 Mbps") {
		t.Errorf("trace replicas report the ignored -rate:\n%s", reps.String())
	}
	// -validate builds the analytical model at the ignored -rate, so the
	// combination is rejected rather than printing meaningless deltas.
	err = run(&bytes.Buffer{}, opts(func(o *options) {
		o.buffer = "64KiB"
		o.stream = "trace"
		o.traceFile = traceFile
		o.validate = true
	}))
	if err == nil || !strings.Contains(err.Error(), "-validate") {
		t.Errorf("trace+validate: err = %v, want usage error", err)
	}
	// A malformed file is a usage error.
	if err := os.WriteFile(traceFile, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.stream = "trace"; o.traceFile = traceFile })); err == nil {
		t.Error("malformed trace file accepted")
	}
}

func TestRunReplicas(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) { o.stream = "vbr"; o.replicas = 4 }))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4 seed-varied replicas") {
		t.Fatalf("replica header missing:\n%s", out)
	}
	if !strings.Contains(out, "per-bit energy spread") {
		t.Errorf("spread summary missing:\n%s", out)
	}
	// Four replicas plus header, column line and summary.
	if got := strings.Count(out, "nJ/b"); got < 5 {
		t.Errorf("expected at least 5 nJ/b mentions (4 replicas + spread), got %d:\n%s", got, out)
	}
}

func TestRunReplicasInvalid(t *testing.T) {
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.bestEffort = 0; o.replicas = 0 })); err == nil {
		t.Error("replicas=0 accepted")
	}
}

// TestRunReplicasDeterministic checks that the concurrent batch reports the
// same per-replica lines as a second identical run: each replica owns its
// RNG state, so the batch must be reproducible.
func TestRunReplicasDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	mutate := func(o *options) { o.stream = "vbr"; o.seed = 9; o.replicas = 3 }
	if err := run(&a, opts(mutate)); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, opts(mutate)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two identical replica batches diverged:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunReplicasRejectsValidate(t *testing.T) {
	err := run(&bytes.Buffer{}, opts(func(o *options) { o.bestEffort = 0; o.validate = true; o.replicas = 4 }))
	if err == nil || !strings.Contains(err.Error(), "-validate") {
		t.Errorf("combining -validate with -replicas should error, got %v", err)
	}
}

func TestResolveDevice(t *testing.T) {
	cases := []struct {
		device  string
		want    string
		wantErr bool
	}{
		{"", "mems", false},
		{"mems", "mems", false},
		{"improved", "improved", false},
		{"disk", "disk", false},
		{"floppy", "", true},
		{"MEMS", "", true}, // no silent case-folding
	}
	for _, c := range cases {
		got, err := resolveDevice(c.device)
		if c.wantErr {
			if err == nil {
				t.Errorf("resolveDevice(%q) accepted, want error", c.device)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolveDevice(%q): %v", c.device, err)
		} else if got != c.want {
			t.Errorf("resolveDevice(%q) = %q, want %q", c.device, got, c.want)
		}
	}
}

func TestResolveStream(t *testing.T) {
	cases := []struct {
		stream  string
		trace   string
		want    string
		wantErr bool
	}{
		{"", "", "cbr", false},
		{"", "f.txt", "trace", false},
		{"cbr", "", "cbr", false},
		{"vbr", "", "vbr", false},
		{"video", "", "video", false},
		{"trace", "f.txt", "trace", false},
		{"trace", "", "", true},    // trace needs a file
		{"cbr", "f.txt", "", true}, // file needs -stream trace
		{"chaos", "", "", true},
		{"VBR", "", "", true}, // no silent case-folding
	}
	for _, c := range cases {
		got, err := resolveStream(c.stream, c.trace)
		if c.wantErr {
			if err == nil {
				t.Errorf("resolveStream(%q, %q) accepted, want error", c.stream, c.trace)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolveStream(%q, %q): %v", c.stream, c.trace, err)
		} else if string(got) != c.want {
			t.Errorf("resolveStream(%q, %q) = %q, want %q", c.stream, c.trace, got, c.want)
		}
	}
}

func TestRunDiskDevice(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) { o.buffer = "8MB"; o.duration = "60s"; o.device = "disk" }))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "refill cycles") {
		t.Errorf("disk run produced no statistics:\n%s", out)
	}
	if !strings.Contains(out, "wear projections:     n/a") {
		t.Errorf("disk run should report the MEMS wear projections as n/a:\n%s", out)
	}
	if strings.Contains(out, "springs projection") {
		t.Errorf("disk run printed MEMS springs projection:\n%s", out)
	}
}

func TestRunDiskRejections(t *testing.T) {
	// An unknown -device must be a usage error, not a silent default.
	err := run(&bytes.Buffer{}, opts(func(o *options) { o.bestEffort = 0; o.device = "floppy" }))
	if err == nil || !strings.Contains(err.Error(), "unknown -device") {
		t.Errorf("unknown device: err = %v, want usage error", err)
	}
	// -validate needs the analytical MEMS model.
	err = run(&bytes.Buffer{}, opts(func(o *options) { o.buffer = "8MB"; o.bestEffort = 0; o.device = "disk"; o.validate = true }))
	if err == nil || !strings.Contains(err.Error(), "-validate") {
		t.Errorf("disk+validate: err = %v, want -validate error", err)
	}
	// A MEMS-sized buffer cannot cover the disk's spin-up drain.
	if err := run(&bytes.Buffer{}, opts(func(o *options) { o.bestEffort = 0; o.device = "disk" })); err == nil {
		t.Error("disk run with a 20 KiB buffer accepted")
	}
}

func TestRunMultiStreams(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) {
		o.streams = streamFlags{
			"name=playback,rate=1024kbps,buffer=128KiB,write=0",
			"name=camera,kind=vbr,rate=512kbps,buffer=64KiB,write=1",
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"2 concurrent streams",
		"round-robin scheduling",
		"wake-ups",
		"playback",
		"camera",
		"energy share",
		"springs projection",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiStreamsPolicyAndTraceKind(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "frames.txt")
	trace := "# trace\n"
	for i := 0; i < 250; i++ {
		trace += fmt.Sprintf("%g 5120\n", float64(i)*0.04)
	}
	if err := os.WriteFile(tracePath, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) {
		o.policy = "edf"
		o.streams = streamFlags{
			"name=playback,rate=1024kbps,buffer=128KiB,write=0",
			"name=replay,kind=trace,buffer=64KiB,trace=" + tracePath,
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "most-urgent scheduling") {
		t.Errorf("edf policy not reported:\n%s", out)
	}
	if !strings.Contains(out, "replay") {
		t.Errorf("trace stream missing:\n%s", out)
	}
}

func TestRunMultiStreamsRejections(t *testing.T) {
	streams := streamFlags{"name=a,rate=1024kbps,buffer=128KiB"}
	cases := []struct {
		name   string
		mutate func(*options)
		want   string
	}{
		{"policy without streams", func(o *options) { o.policy = "rr" }, "-policy needs a -streams set"},
		{"streams with -stream", func(o *options) { o.streams = streams; o.stream = "vbr" }, "-stream"},
		{"streams with -validate", func(o *options) { o.streams = streams; o.validate = true }, "-validate"},
		{"streams with -replicas", func(o *options) { o.streams = streams; o.replicas = 4 }, "-replicas"},
		{"streams with -ber", func(o *options) { o.streams = streams; o.ber = 1e-4 }, "-ber"},
		{"streams with -dump-trace", func(o *options) { o.streams = streams; o.dumpTrace = "x" }, "-dump-trace"},
		{"bad policy", func(o *options) { o.streams = streams; o.policy = "fifo" }, "unknown -policy"},
		{"missing buffer", func(o *options) { o.streams = streamFlags{"name=a,rate=1024kbps"} }, "buffer is required"},
		{"missing rate", func(o *options) { o.streams = streamFlags{"name=a,buffer=128KiB"} }, "rate is required"},
		{"unknown key", func(o *options) { o.streams = streamFlags{"name=a,rate=1kbps,buffer=1KiB,color=red"} }, "unknown key"},
		{"bad write", func(o *options) { o.streams = streamFlags{"name=a,rate=1kbps,buffer=1KiB,write=2"} }, "write must be"},
		{"NaN write", func(o *options) { o.streams = streamFlags{"name=a,rate=1024kbps,buffer=64KiB,write=NaN"} }, "write fraction must be in [0, 1]"},
		{"trace on cbr", func(o *options) { o.streams = streamFlags{"name=a,rate=1kbps,buffer=1KiB,trace=x"} }, "trace only applies"},
		{"negative best effort", func(o *options) { o.streams = streams; o.bestEffort = -0.2 }, "best-effort fraction must be in [0, 1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(&buf, opts(tc.mutate))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRunMultiStreamsDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		err := run(&buf, opts(func(o *options) {
			o.streams = streamFlags{
				"name=a,kind=vbr,rate=1024kbps,buffer=128KiB",
				"name=b,kind=video,rate=512kbps,buffer=128KiB",
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("identical -streams invocations produced different reports")
	}
}

// TestRunMultiStreamsMatchesService asks memssim -streams and /v1/multisim
// the same shared-device question: both must seed the streams alike and so
// report the same per-bit energy and the same per-stream energy shares.
func TestRunMultiStreamsMatchesService(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, opts(func(o *options) {
		o.seed = 5
		o.streams = streamFlags{
			"name=a,kind=vbr,rate=1024kbps,buffer=128KiB",
			"name=b,kind=video,rate=512kbps,buffer=128KiB",
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := memstream.NewService(memstream.ServiceConfig{}).MultiSim(context.Background(), memstream.MultiSimRequest{
		Streams: []memstream.MultiSimStreamSpec{
			{Name: "a", Stream: "vbr", Rate: "1024kbps", Buffer: "128KiB"},
			{Name: "b", Stream: "video", Rate: "512kbps", Buffer: "128KiB"},
		},
		Duration: "30s",
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, want := buf.String(), resp.Runs[0]
	if !strings.Contains(out, "per-bit "+want.EnergyPerBit+"\n") {
		t.Errorf("memssim per-bit energy differs from the service's %s:\n%s", want.EnergyPerBit, out)
	}
	for _, st := range want.Streams {
		share := fmt.Sprintf("%.1f%%", 100*st.EnergyShare)
		found := false
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == st.Name && f[len(f)-1] == share {
				found = true
			}
		}
		if !found {
			t.Errorf("memssim reports no %s energy share for stream %s:\n%s", share, st.Name, out)
		}
	}
}
