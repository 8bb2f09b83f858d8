package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// decodeStrict decodes one JSON object the way the endpoints do: unknown
// fields and trailing data are rejected.
func decodeStrict(data string, v any) bool {
	dec := json.NewDecoder(strings.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && !dec.More()
}

// fuzzResolve drives one /v1 decoder and its resolve with arbitrary bodies.
// Nothing may panic, and every rejection must be a *ValidationError (a 400,
// never a 500). An accepted request gets both keys: its JSON encoding, the
// oracle, and its binary fingerprint, the cache key. The fingerprint must
// fail exactly where the JSON encoding fails, and an accepted request's must
// not, so no NaN or Inf reaches a cache key. And the decoded request must
// round-trip: marshal is a fixed point of decode-then-marshal, and decode →
// marshal → decode → resolve lands on the same two keys, because they are
// built from the resolved values, not from their spelling.
func fuzzResolve[Req any, J job](f *testing.F, resolve func(Req, *Service) (J, error), seeds ...string) {
	for _, s := range seeds {
		f.Add(s)
	}
	svc := New(Config{})
	fingerprint := func(t *testing.T, req Req) (jsonKey, key []byte) {
		j, err := resolve(req, svc)
		if err != nil {
			if verr := (*ValidationError)(nil); !errors.As(err, &verr) {
				t.Fatalf("rejection is not a ValidationError: %v", err)
			}
			return nil, nil
		}
		jsonKey, jsonErr, key, err := jobKeys(j)
		if (jsonErr == nil) != (err == nil) {
			t.Fatalf("json.Marshal fails with %v, the fingerprint with %v", jsonErr, err)
		}
		if err != nil {
			t.Fatalf("fingerprint of an accepted request: %v", err)
		}
		return jsonKey, key
	}
	f.Fuzz(func(t *testing.T, data string) {
		var req Req
		if !decodeStrict(data, &req) {
			return
		}
		jsonKey, key := fingerprint(t, req)
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal decoded request: %v", err)
		}
		var again Req
		if !decodeStrict(string(blob), &again) {
			t.Fatalf("canonical form rejected by the decoder: %s", blob)
		}
		blob2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshal canonical form: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Errorf("canonical form is not a fixed point:\n%s\n%s", blob, blob2)
		}
		if key == nil {
			return
		}
		jsonKey2, key2 := fingerprint(t, again)
		if !bytes.Equal(jsonKey, jsonKey2) {
			t.Errorf("JSON key changed across the round trip of %s:\n%s\n%s", blob, jsonKey, jsonKey2)
		}
		if !bytes.Equal(key, key2) {
			t.Errorf("fingerprint changed across the round trip of %s:\n%x\n%x", blob, key, key2)
		}
	})
}

const fuzzGoal = `"goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"7 years"}`

func FuzzDecodeDimensionRequest(f *testing.F) {
	fuzzResolve(f, DimensionRequest.resolve,
		`{"rate":"1024 kbps",`+fuzzGoal+`}`,
		`{"device":{"name":"improved","probe_write_cycles":200},"rate":1024000,`+fuzzGoal+`}`,
		`{"device":{"name":"disk"},"rate":"1 Mbps"}`,
		`{"rate":"-1 kbps","goal":{"energy_saving":1.5}}`,
		`{"rate":"1 bps","goal":{"lifetime":"NaN"}}`,
		`{"rate":"1e400 bps",`+fuzzGoal+`}`)
}

func FuzzDecodeSweepRequest(f *testing.F) {
	fuzzResolve(f, SweepRequest.resolve,
		`{`+fuzzGoal+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":64,"workers":4}`,
		`{`+fuzzGoal+`,"min_rate":32000,"max_rate":"32 kbps","points":2}`,
		`{`+fuzzGoal+`,"min_rate":"1e-300 bps","max_rate":"1e300 bps","points":4096}`,
		`{"device":{"name":"default"},"points":-1,"workers":-1}`)
}

// FuzzDecodeSimulateRequest drives the strict-JSON decode and field
// resolution of /v1/simulate, whose fingerprint holds the most derived
// values: the resolved video parameters and the quantized trace frames.
func FuzzDecodeSimulateRequest(f *testing.F) {
	fuzzResolve(f, SimulateRequest.resolve,
		`{"rate":"1024 kbps","buffer":"64 KiB"}`,
		`{"rate":1024000,"buffer":65536,"duration":"5 min","stream":"vbr","seed":7,"replicas":3}`,
		`{"device":{"name":"disk"},"rate":"1024 kbps","buffer":"4 MB"}`,
		`{"rate":"1 Mbps","buffer":"64 KiB","stream":"video","video":{"frame_rate":30,"gop_length":15,"jitter":0}}`,
		`{"stream":"trace","buffer":"64 KiB","frames":[{"timestamp":0,"size":1500},{"timestamp":"40ms","size":"3 KiB","class":"I"}]}`,
		`{"rate":"-5 kbps","buffer":""}`,
		`{"rate":{},"buffer":[1]}`,
		`{"unknown":"field"}`,
		`{"best_effort":0.05,"workers":-1}`,
		// A timestamp whose nanosecond count overflows a float64.
		`{"stream":"trace","buffer":"64 KiB","frames":[{"timestamp":0,"size":1000},{"timestamp":"1e300","size":1000}]}`)
}

func FuzzDecodeMultiSimRequest(f *testing.F) {
	fuzzResolve(f, MultiSimRequest.resolve,
		`{"policy":"edf","streams":[{"name":"playback","rate":"1024 kbps","buffer":"128 KB","write_fraction":0},{"name":"recording","rate":"512 kbps","buffer":"64 KB","write_fraction":1}],"duration":"30 s","replicas":2,"seed":5}`,
		`{"streams":[{"name":"v","stream":"vbr","rate":"768 kbps","buffer":"128 KB"},{"name":"m","stream":"video","rate":"1 Mbps","buffer":"256 KB","video":{"gop_length":15,"jitter":0}}]}`,
		`{"device":{"name":"disk"},"policy":"prio","streams":[{"name":"a","rate":"1 Mbps","buffer":"8 MB","priority":-3}],"workers":2}`,
		`{"streams":[{"name":"a","stream":"trace"}]}`,
		`{"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB","write_fraction":-0}],"best_effort":0}`)
}

func FuzzDecodeBreakEvenRequest(f *testing.F) {
	fuzzResolve(f, BreakEvenRequest.resolve,
		`{"rate":"1024 kbps"}`,
		`{"device":{"name":"improved"},"rate":4096000}`,
		`{"device":{"spring_duty_cycles":-1},"rate":"x"}`,
		`{}`)
}

func FuzzDecodeMultiStreamRequest(f *testing.F) {
	fuzzResolve(f, MultiStreamRequest.resolve,
		`{`+fuzzGoal+`,"streams":[{"name":"record","rate":"768 kbps","write_fraction":1},{"name":"play","rate":"512 kbps","write_fraction":0}],"count_inter_stream_seeks":true}`,
		`{`+fuzzGoal+`,"streams":[{"name":"","rate":"300 Mbps","write_fraction":2}]}`,
		`{"device":{"name":"mems"},"streams":[]}`)
}
