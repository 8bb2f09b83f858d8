package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"memstream/internal/units"
)

func TestParseFrames(t *testing.T) {
	const text = `# a three-frame trace
0 4000bit I
40ms 1000bit
0.08 500 B
`
	frames, err := ParseFrames(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("parsed %d frames, want 3", len(frames))
	}
	if frames[0].Class != FrameI || frames[1].Class != FrameP || frames[2].Class != FrameB {
		t.Errorf("classes = %v %v %v, want I P(default) B", frames[0].Class, frames[1].Class, frames[2].Class)
	}
	if frames[0].Size != 4000 {
		t.Errorf("frame 0 size = %v, want 4000 bit", frames[0].Size)
	}
	// Bare sizes are bytes, like everywhere else in the repo.
	if frames[2].Size != 500*units.Byte {
		t.Errorf("frame 2 size = %v, want 500 bytes", frames[2].Size)
	}
	if got := frames[1].Timestamp.Seconds(); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("frame 1 timestamp = %v, want 40 ms", frames[1].Timestamp)
	}
}

func TestParseFramesNormalizesOffset(t *testing.T) {
	frames, err := ParseFrames(strings.NewReader("10 4000bit\n10.5 4000bit\n"))
	if err != nil {
		t.Fatal(err)
	}
	if frames[0].Timestamp != 0 || frames[1].Timestamp != units.Duration(0.5) {
		t.Errorf("offset trace not shifted to zero: %v, %v", frames[0].Timestamp, frames[1].Timestamp)
	}
}

func TestParseFramesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"comments only":       "# nothing\n\n",
		"one field":           "0.04\n",
		"four fields":         "0 4000bit I extra\n",
		"bad timestamp":       "oops 4000bit\n",
		"bad size":            "0 parsecs\n",
		"bad class":           "0 4000bit X\n",
		"non-increasing time": "0 4000bit\n0 4000bit\n",
		"zero size":           "0 0bit\n",
	}
	for name, text := range cases {
		if _, err := ParseFrames(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFormatFramesRoundTrip(t *testing.T) {
	frames, err := VideoSpec(1024*units.Kbps, 11).TraceFrames(2 * units.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FormatFrames(&buf, frames); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(frames) {
		t.Fatalf("round trip lost frames: %d vs %d", len(parsed), len(frames))
	}
	for i := range frames {
		if parsed[i].Size != frames[i].Size || parsed[i].Class != frames[i].Class {
			t.Fatalf("frame %d changed in round trip: %+v vs %+v", i, parsed[i], frames[i])
		}
		if math.Abs(parsed[i].Timestamp.Seconds()-frames[i].Timestamp.Seconds()) > 1e-9 {
			t.Fatalf("frame %d timestamp drifted: %v vs %v", i, parsed[i].Timestamp, frames[i].Timestamp)
		}
	}
}

func TestTracePatternRates(t *testing.T) {
	frames := []Frame{
		{Timestamp: 0, Size: 4000},                   // 4000 bit over 0.5 s = 8 kbps
		{Timestamp: units.Duration(0.5), Size: 1000}, // 1000 bit over 0.5 s = 2 kbps
		{Timestamp: units.Duration(1.0), Size: 2000}, // repeats the 0.5 s interval: 4 kbps
	}
	p, err := NewTracePattern(frames)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.horizon; got != 1.5 {
		t.Errorf("horizon = %v, want 1.5 s (last interval repeated)", got)
	}
	checks := []struct {
		at   units.Duration
		want units.BitRate
	}{
		{0, 8000}, {units.Duration(0.49), 8000},
		{units.Duration(0.5), 2000}, {units.Duration(0.99), 2000},
		{units.Duration(1.0), 4000}, {units.Duration(1.49), 4000},
		// Wrap-around: later cycles replay the first (3.1 s = 2 cycles + 0.1 s,
		// 4.0 s = 2 cycles + 1.0 s).
		{units.Duration(1.5), 8000}, {units.Duration(2.0), 2000}, {units.Duration(3.1), 8000}, {units.Duration(4.0), 4000},
	}
	for _, c := range checks {
		if got := rateAt(p, c.at); math.Abs(got.BitsPerSecond()-c.want.BitsPerSecond()) > 1e-6 {
			t.Errorf("rate at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := p.PeakRate(); got != 8000 {
		t.Errorf("peak = %v, want 8 kbps", got)
	}
	if got := p.AverageRate().BitsPerSecond(); math.Abs(got-7000/1.5) > 1e-6 {
		t.Errorf("average = %v, want %v", got, 7000/1.5)
	}
}

func TestTracePatternNextRateChange(t *testing.T) {
	p, err := NewTracePattern([]Frame{
		{Timestamp: 0, Size: 4000},
		{Timestamp: units.Duration(0.5), Size: 1000},
		{Timestamp: units.Duration(1.0), Size: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		at, want units.Duration
	}{
		{0, units.Duration(0.5)},
		{units.Duration(0.5), units.Duration(1.0)},
		{units.Duration(1.2), units.Duration(1.5)}, // the wrap itself is a change point
		{units.Duration(1.5), units.Duration(2.0)}, // second cycle
	}
	for _, c := range checks {
		if _, got, _ := p.Segment(c.at, NoCursor); math.Abs(got.Seconds()-c.want.Seconds()) > 1e-9 {
			t.Errorf("next change after %v = %v, want %v", c.at, got, c.want)
		}
	}
	// Walking change to change always advances.
	at, cursor := units.Duration(0), NoCursor
	for i := 0; i < 20; i++ {
		_, next, nextCursor := p.Segment(at, cursor)
		if next <= at {
			t.Fatalf("change %d: %v does not advance past %v", i, next, at)
		}
		at, cursor = next, nextCursor
	}
}

func TestTracePatternSingleFrame(t *testing.T) {
	p, err := NewTracePattern([]Frame{{Timestamp: 0, Size: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.horizon; got != DefaultFrameInterval.Seconds() {
		t.Errorf("single-frame horizon = %v, want the default interval %v", got, DefaultFrameInterval)
	}
	want := 400 / DefaultFrameInterval.Seconds()
	if got := rateAt(p, units.Second).BitsPerSecond(); math.Abs(got-want) > 1e-9 {
		t.Errorf("rate = %v, want %v", got, want)
	}
}
