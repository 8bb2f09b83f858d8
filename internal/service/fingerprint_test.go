package service

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"memstream/internal/units"
	"memstream/internal/workload"
)

// jobKeys returns both keys of a resolved job: its JSON encoding, the
// oracle, and its binary fingerprint, the cache key.
func jobKeys(j any) (jsonKey []byte, jsonErr error, key []byte, err error) {
	jsonKey, jsonErr = json.Marshal(j)
	key, err = appendFingerprint(nil, reflect.ValueOf(j))
	return jsonKey, jsonErr, key, err
}

// resolveBody strictly decodes a request body and resolves it, reporting
// whether the endpoint would accept it.
func resolveBody[Req any, J job](resolve func(Req, *Service) (J, error)) func(*Service, string) (any, bool) {
	return func(s *Service, body string) (any, bool) {
		var req Req
		if !decodeStrict(body, &req) {
			return nil, false
		}
		j, err := resolve(req, s)
		return j, err == nil
	}
}

// resolvers resolves the request bodies of each /v1 endpoint.
var resolvers = map[string]func(*Service, string) (any, bool){
	"/v1/dimension":   resolveBody(DimensionRequest.resolve),
	"/v1/sweep":       resolveBody(SweepRequest.resolve),
	"/v1/simulate":    resolveBody(SimulateRequest.resolve),
	"/v1/multisim":    resolveBody(MultiSimRequest.resolve),
	"/v1/breakeven":   resolveBody(BreakEvenRequest.resolve),
	"/v1/multistream": resolveBody(MultiStreamRequest.resolve),
}

// TestFingerprintsPartitionLikeJSON resolves every request body of the
// contract golden that its endpoint accepts and checks, over every pair of
// one endpoint, that the two binary fingerprints are equal exactly when the
// two JSON keys are: the binary key shares an entry where the JSON key did,
// and only there.
func TestFingerprintsPartitionLikeJSON(t *testing.T) {
	data, err := os.ReadFile(contractGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var records []contractRecord
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatal(err)
	}
	type keyed struct{ name, jsonKey, key string }
	byPath := map[string][]keyed{}
	svc := New(Config{})
	for _, r := range records {
		resolve, ok := resolvers[r.Path]
		if !ok {
			t.Fatalf("%s: no resolver for %s", r.Name, r.Path)
		}
		j, ok := resolve(svc, r.Body)
		if !ok {
			continue
		}
		jsonKey, jsonErr, key, err := jobKeys(j)
		if jsonErr != nil || err != nil {
			t.Fatalf("%s: json.Marshal: %v, fingerprint: %v", r.Name, jsonErr, err)
		}
		byPath[r.Path] = append(byPath[r.Path], keyed{r.Name, string(jsonKey), string(key)})
	}
	var shared, apart int
	for path := range resolvers {
		ks := byPath[path]
		if len(ks) < 2 {
			t.Errorf("%s: %d accepted bodies; the pairs need at least two", path, len(ks))
		}
		for i, a := range ks {
			for _, b := range ks[i+1:] {
				sameJSON := a.jsonKey == b.jsonKey
				if same := a.key == b.key; same != sameJSON {
					t.Errorf("%s and %s: equal fingerprints %t, equal JSON keys %t", a.name, b.name, same, sameJSON)
				}
				if sameJSON {
					shared++
				} else {
					apart++
				}
			}
		}
	}
	if shared == 0 || apart == 0 {
		t.Errorf("%d pairs share a key and %d do not; the corpus needs both", shared, apart)
	}
}

// keyLeaves calls visit with the dotted path of every value reachable from v
// through exported fields and embedded structs that can be set: each scalar,
// each slice and, inside slices, each element's leaves. Embedded structs
// keep their type names in the path, so simRun.Seed is a promoted field.
func keyLeaves(v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			keyLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Slice:
		if v.CanSet() {
			visit(path, v)
		}
		for i := range v.Len() {
			keyLeaves(v.Index(i), path+"["+strconv.Itoa(i)+"]", visit)
		}
	default:
		if v.CanSet() {
			visit(path, v)
		}
	}
}

// nudge changes one leaf by the least step of its kind: the next float up, an
// integer plus one, a string one byte longer, a flipped bool, and a nil slice
// made empty or any other slice made nil.
func nudge(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		if v.IsNil() {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		} else {
			v.SetZero()
		}
	default:
		panic("nudge: no step for " + v.Kind().String())
	}
}

// TestFingerprintCoversEveryJSONField resolves one request per job type (and
// a trace and a disk run for /v1/simulate), then changes one leaf at a time:
// the fingerprint must change exactly when the JSON key does, and every leaf
// must change both. Promoted leaves such as the run's Kind, Seed and
// Disk.SpinUpPower are checked by name. A NaN or an infinity in any float
// leaf must fail both encodings. The worker bound and the memoized trace,
// which never change an answer, must change neither key.
func TestFingerprintCoversEveryJSONField(t *testing.T) {
	const video = `{"name":"v","stream":"video","rate":"1 Mbps","buffer":"256 KB","priority":1,"video":{"gop_length":15}}`
	cases := []struct {
		path, body string
		promoted   []string
	}{
		{"/v1/dimension", `{"rate":"1024 kbps","goal":` + goalJSON + `}`, nil},
		{"/v1/sweep", `{"goal":` + goalJSON + `,"min_rate":"32 kbps","max_rate":"4096 kbps","points":6,"workers":2}`, nil},
		{"/v1/simulate", `{"rate":"1024 kbps","buffer":"64 KiB","duration":"10 s","stream":"video","seed":3,"replicas":2,"workers":2}`,
			[]string{".simRun.simDevice.Kind", ".simRun.Seed", ".simRun.simDevice.Disk.SpinUpPower", ".simRun.simDevice.MEMS.SeekPower", ".simRun.Duration"}},
		{"/v1/simulate", `{"device":{"name":"disk"},"buffer":"8 MB","stream":"trace","frames":` + traceFrames + `}`,
			[]string{".simRun.simDevice.Kind", ".simRun.simDevice.Disk.SpinUpPower", ".Frames[1].T", ".Frames[0].C"}},
		{"/v1/multisim", `{"policy":"prio","streams":[` + video + `,{"name":"r","stream":"vbr","rate":"512 kbps","buffer":"64 KB","write_fraction":1}],"workers":2}`,
			[]string{".simRun.simDevice.Kind", ".simRun.Seed", ".simRun.BestEffort", ".simRun.Replicas", ".Streams[0].Spec.Jitter"}},
		{"/v1/breakeven", `{"device":{"name":"improved"},"rate":"1024 kbps"}`, nil},
		{"/v1/multistream", `{"goal":` + goalJSON + `,"streams":` + mixPair + `,"count_inter_stream_seeks":true}`, nil},
	}
	svc := New(Config{})
	for _, c := range cases {
		resolve := func() reflect.Value {
			j, ok := resolvers[c.path](svc, c.body)
			if !ok {
				t.Fatalf("%s: %s rejected", c.path, c.body)
			}
			v := reflect.New(reflect.TypeOf(j)).Elem()
			v.Set(reflect.ValueOf(j))
			return v
		}
		jsonBase, _, base, err := jobKeys(resolve().Interface())
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		var paths []string
		keyLeaves(resolve(), "", func(p string, _ reflect.Value) { paths = append(paths, p) })
		changed := map[string]bool{}
		for i, p := range paths {
			// Each leaf is changed on a freshly resolved job, so no slice
			// aliases the base.
			j := resolve()
			k := 0
			keyLeaves(j, "", func(_ string, leaf reflect.Value) {
				if k == i {
					nudge(leaf)
				}
				k++
			})
			jsonKey, jsonErr, key, err := jobKeys(j.Interface())
			if jsonErr != nil || err != nil {
				t.Fatalf("%s %s: json.Marshal: %v, fingerprint: %v", c.path, p, jsonErr, err)
			}
			jsonChanged, keyChanged := !bytes.Equal(jsonKey, jsonBase), !bytes.Equal(key, base)
			if jsonChanged != keyChanged || !keyChanged {
				t.Errorf("%s %s: JSON key changed %t, fingerprint changed %t; want both", c.path, p, jsonChanged, keyChanged)
			}
			changed[p] = keyChanged
		}
		for _, p := range c.promoted {
			if !changed[p] {
				t.Errorf("%s: promoted leaf %s was not walked or did not change the key", c.path, p)
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for i, p := range paths {
				j := resolve()
				k, float := 0, false
				keyLeaves(j, "", func(_ string, leaf reflect.Value) {
					if k == i && leaf.Kind() == reflect.Float64 {
						leaf.SetFloat(bad)
						float = true
					}
					k++
				})
				if !float {
					continue
				}
				if _, jsonErr, _, err := jobKeys(j.Interface()); jsonErr == nil || err == nil {
					t.Errorf("%s %s = %v: json.Marshal error %v, fingerprint error %v; want both to fail", c.path, p, bad, jsonErr, err)
				}
			}
		}
	}

	// The fields JSON leaves out: the worker bound and the memoized trace.
	same := func(name string, a, b any) {
		t.Helper()
		jsonA, _, keyA, _ := jobKeys(a)
		jsonB, _, keyB, _ := jobKeys(b)
		if !bytes.Equal(jsonA, jsonB) || !bytes.Equal(keyA, keyB) {
			t.Errorf("%s changed a key", name)
		}
	}
	sweep, _ := resolvers["/v1/sweep"](svc, cases[1].body)
	s := sweep.(sweepJob)
	s.bound++
	same("sweepJob.bound", sweep, s)
	simulate, _ := resolvers["/v1/simulate"](svc, cases[3].body)
	sj := simulate.(simulateJob)
	sj.bound++
	sj.trace = workload.CBRSpec(units.Mbps)
	same("simulateJob.bound and trace", simulate, sj)
	multisim, _ := resolvers["/v1/multisim"](svc, cases[4].body)
	mj := multisim.(multiSimJob)
	mj.bound++
	same("multiSimJob.bound", multisim, mj)
}
