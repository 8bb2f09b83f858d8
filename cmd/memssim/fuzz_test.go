package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memstream"
)

// FuzzParseStreamSpec drives the -streams k=v parser with arbitrary values:
// nothing panics, every rejection starts with `-streams "<value>":`, and
// every accepted stream, put into a shared-device configuration, either
// validates or is rejected there without a panic. Every trace= field is
// pointed at a trace inside the test's temporary directory, so the fuzzer
// never reads arbitrary files.
func FuzzParseStreamSpec(f *testing.F) {
	tracePath := filepath.Join(f.TempDir(), "frames.txt")
	if err := os.WriteFile(tracePath, []byte("0 5120 I\n0.04 2048\n0.08 1024 B\n"), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Add("name=playback,rate=1024kbps,buffer=128KiB,write=0", 0, uint64(1))
	f.Add("name=camera,kind=vbr,rate=512kbps,buffer=64KiB,write=1", 1, uint64(7))
	f.Add("kind=video,rate=2Mbps,buffer=256KiB,prio=3", 2, uint64(3))
	f.Add("name=replay,kind=trace,buffer=64KiB,trace=frames.txt", 0, uint64(1))
	f.Add("name=a,rate=1024kbps,buffer=64KiB,write=NaN", 0, uint64(1))
	f.Add("name=a,rate=1kbps,buffer=1KiB,write=2", 0, uint64(1))
	f.Add("name=a,rate=1024kbps", 0, uint64(1))
	f.Add("kind=trace,rate=1kbps,buffer=1KiB,trace=x", 0, uint64(1))
	f.Add("rate=200Mbps,buffer=1KiB", 5, uint64(0))
	f.Add("rate=1e400kbps,buffer=-1KiB,prio=x", -1, uint64(0))
	f.Add(" , ,kind=cbr,buffer=1e300KiB,rate=1kbps", 0, uint64(0))
	f.Fuzz(func(t *testing.T, value string, index int, seed uint64) {
		fields := strings.Split(value, ",")
		for i, field := range fields {
			if k, _, _ := strings.Cut(strings.TrimSpace(field), "="); k == "trace" {
				fields[i] = "trace=" + tracePath
			}
		}
		value = strings.Join(fields, ",")
		stream, err := parseStreamSpec(value, index)
		if err != nil {
			if prefix := fmt.Sprintf("-streams %q: ", value); !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("rejection %q does not start with %q", err, prefix)
			}
			return
		}
		cfg := memstream.SimMultiConfig{
			Device:   memstream.DefaultDevice(),
			DRAM:     memstream.DefaultDRAM(),
			Policy:   memstream.PolicyRoundRobin,
			Duration: memstream.Minute,
			Seed:     seed,
			Streams:  []memstream.SimMultiStream{stream},
		}
		_ = cfg.Validate()
	})
}
