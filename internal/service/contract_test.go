package service

// The contract golden pins the HTTP contract of every /v1 endpoint: one
// Service serves a fixed corpus of requests through Handler(), and each
// record holds the path, the request body, the status, the exact response
// body and the cache entry count after the request. The entry count pins
// which requests share a cache key: equivalent spellings (units, bare
// numbers, device and policy aliases, omitted defaults, time-shifted traces,
// worker counts) must not add an entry, and genuinely different questions
// (mems against disk, policies, priorities, seeds) must. The rejections pin
// every validation message and the order the checks run in.
//
// Regenerate (only when a deliberate change to the contract is being made):
//
//	MEMSTREAM_WRITE_GOLDEN=1 go test ./internal/service -run TestHTTPContractMatchesGolden

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const contractGoldenPath = "testdata/contract_golden.json"

// contractRecord is one request of the corpus and what the service answered.
type contractRecord struct {
	Name     string          `json:"name"`
	Path     string          `json:"path"`
	Body     string          `json:"body"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response"`
	Entries  int             `json:"entries"`
}

// contractRequest is one corpus entry before it is served.
type contractRequest struct{ name, path, body string }

// Shared corpus fragments.
const (
	goalA        = `{"energy_saving":0.5,"capacity_utilisation":0.88,"lifetime":"3 years"}`
	sweepRange   = `"min_rate":"32 kbps","max_rate":"4096 kbps","points":6`
	simBase      = `"rate":"1024 kbps","buffer":"64 KiB","duration":"10 s"`
	videoBase    = `"rate":"1024 kbps","buffer":"64 KiB","duration":"10 s","stream":"video"`
	traceFrames  = `[{"timestamp":0,"size":"6250bit","class":"I"},{"timestamp":"40ms","size":"4000bit"},{"timestamp":0.08,"size":"3000bit","class":"B"},{"timestamp":0.12,"size":"4500bit","class":"P"}]`
	traceShifted = `[{"timestamp":"1s","size":"6250bit","class":"I"},{"timestamp":1.04,"size":"500 B","class":"P"},{"timestamp":1.08,"size":"3000bit","class":"B"},{"timestamp":"1.12","size":"4.5 kbit"}]`
	multiPair    = `[{"name":"playback","rate":"1024 kbps","buffer":"128 KB","write_fraction":0},{"name":"recording","rate":"512 kbps","buffer":"64 KB","write_fraction":1}]`
	mixPair      = `[{"name":"record","rate":"768 kbps","write_fraction":1},{"name":"play","rate":"512 kbps","write_fraction":0}]`
)

// contractCorpus lists every request of the golden, in serving order.
func contractCorpus() []contractRequest {
	var c []contractRequest
	add := func(name, path, body string) { c = append(c, contractRequest{name, path, body}) }

	// /v1/dimension: one question spelled many ways, then distinct questions.
	const dim = "/v1/dimension"
	add("dimension/base", dim, `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/bare-number-rate", dim, `{"rate":1024000,"goal":`+goalJSON+`}`)
	add("dimension/default-alias-and-unit", dim, `{"device":{"name":"default"},"rate":"1024kbit/s","goal":`+goalJSON+`}`)
	add("dimension/mems-alias-and-mbps", dim, `{"device":{"name":"mems"},"rate":"1.024 Mbps","goal":`+goalJSON+`}`)
	add("dimension/lifetime-spelling", dim, `{"rate":"1024 kbps","goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"7 yr"}}`)
	add("dimension/overrides-equal-defaults", dim, `{"device":{"probe_write_cycles":100,"spring_duty_cycles":1e8},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/improved", dim, `{"device":{"name":"improved"},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/probe-override", dim, `{"device":{"probe_write_cycles":200},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/other-rate", dim, `{"rate":"256 kbps","goal":`+goalJSON+`}`)
	add("dimension/other-goal", dim, `{"rate":"1024 kbps","goal":`+goalA+`}`)
	add("dimension/infeasible", dim, `{"rate":"8 Mbps","goal":`+goalJSON+`}`)
	add("dimension/unknown-field", dim, `{"rate":"1024 kbps","goal":`+goalJSON+`,"bogus":1}`)
	add("dimension/malformed-json", dim, `{"rate":`)
	add("dimension/empty-body", dim, ``)
	add("dimension/trailing-object", dim, `{"rate":"1024 kbps","goal":`+goalJSON+`}{}`)
	add("dimension/non-scalar-rate", dim, `{"rate":{"kbps":1024},"goal":`+goalJSON+`}`)
	add("dimension/missing-rate", dim, `{"goal":`+goalJSON+`}`)
	add("dimension/bad-rate-unit", dim, `{"rate":"10 parsecs","goal":`+goalJSON+`}`)
	add("dimension/negative-rate", dim, `{"rate":-5,"goal":`+goalJSON+`}`)
	add("dimension/zero-rate", dim, `{"rate":"0 kbps","goal":`+goalJSON+`}`)
	add("dimension/energy-goal-out-of-range", dim, `{"rate":"1024 kbps","goal":{"energy_saving":1.5,"capacity_utilisation":0.88,"lifetime":"7 years"}}`)
	add("dimension/nan-lifetime", dim, `{"rate":"1024 kbps","goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"NaN"}}`)
	add("dimension/negative-lifetime", dim, `{"rate":"1024 kbps","goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"-1 years"}}`)
	add("dimension/bad-lifetime-unit", dim, `{"rate":"1024 kbps","goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"7 fortnights"}}`)
	add("dimension/unknown-device", dim, `{"device":{"name":"quantum"},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/disk-device", dim, `{"device":{"name":"disk"},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/negative-override", dim, `{"device":{"spring_duty_cycles":-1},"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("dimension/device-before-rate", dim, `{"device":{"name":"quantum"},"rate":"10 parsecs","goal":`+goalJSON+`}`)
	add("dimension/rate-before-goal", dim, `{"rate":"10 parsecs","goal":{"energy_saving":1.5,"capacity_utilisation":0.88,"lifetime":"7 years"}}`)

	// /v1/sweep.
	const sweep = "/v1/sweep"
	add("sweep/base", sweep, `{"goal":`+goalJSON+`,`+sweepRange+`}`)
	add("sweep/workers-1", sweep, `{"goal":`+goalJSON+`,`+sweepRange+`,"workers":1}`)
	add("sweep/workers-4-bare-rates", sweep, `{"goal":`+goalJSON+`,"min_rate":32000,"max_rate":"4.096 Mbps","points":6,"workers":4}`)
	add("sweep/more-points", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":9}`)
	add("sweep/improved", sweep, `{"device":{"name":"improved"},"goal":`+goalJSON+`,`+sweepRange+`}`)
	add("sweep/goal-a", sweep, `{"goal":`+goalA+`,`+sweepRange+`}`)
	add("sweep/inverted-range", sweep, `{"goal":`+goalJSON+`,"min_rate":"4096 kbps","max_rate":"32 kbps","points":8}`)
	add("sweep/equal-rates", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"32 kbps","points":8}`)
	add("sweep/too-few-points", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":1}`)
	add("sweep/too-many-points", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":100000}`)
	add("sweep/missing-points", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps"}`)
	add("sweep/negative-workers", sweep, `{"goal":`+goalJSON+`,`+sweepRange+`,"workers":-4}`)
	add("sweep/missing-min-rate", sweep, `{"goal":`+goalJSON+`,"max_rate":"4096 kbps","points":6}`)
	add("sweep/bad-max-rate", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"fast","points":6}`)
	add("sweep/disk-device", sweep, `{"device":{"name":"disk"},"goal":`+goalJSON+`,`+sweepRange+`}`)
	add("sweep/bad-goal", sweep, `{"goal":{"energy_saving":0.7,"capacity_utilisation":1.2,"lifetime":"7 years"},`+sweepRange+`}`)
	add("sweep/goal-before-rates", sweep, `{"goal":{"energy_saving":0.7,"capacity_utilisation":1.2,"lifetime":"7 years"},"min_rate":"x","max_rate":"y","points":0}`)
	add("sweep/points-before-workers", sweep, `{"goal":`+goalJSON+`,"min_rate":"32 kbps","max_rate":"4096 kbps","points":0,"workers":-1}`)

	// /v1/simulate: constant-rate runs and their spellings.
	const simulate = "/v1/simulate"
	add("simulate/cbr", simulate, `{`+simBase+`}`)
	add("simulate/cbr-bare-numbers", simulate, `{"rate":1024000,"buffer":65536,"duration":10}`)
	add("simulate/cbr-explicit-defaults", simulate, `{"device":{"name":"mems"},`+simBase+`,"stream":"cbr","best_effort":0.05,"seed":1,"replicas":1,"workers":2}`)
	add("simulate/cbr-zero-seed-and-replicas", simulate, `{`+simBase+`,"seed":0,"replicas":0,"workers":0}`)
	add("simulate/cbr-seed-2", simulate, `{`+simBase+`,"seed":2}`)
	add("simulate/cbr-no-best-effort", simulate, `{`+simBase+`,"best_effort":0}`)
	add("simulate/cbr-replicas-3", simulate, `{`+simBase+`,"replicas":3}`)
	add("simulate/cbr-replicas-3-workers-1", simulate, `{`+simBase+`,"replicas":3,"workers":1}`)
	add("simulate/cbr-improved", simulate, `{"device":{"name":"improved"},`+simBase+`}`)
	add("simulate/cbr-default-duration", simulate, `{"rate":"1024 kbps","buffer":"64 KiB"}`)
	add("simulate/cbr-explicit-5-min", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","duration":"5 min"}`)
	add("simulate/disk", simulate, `{"device":{"name":"disk"},"rate":"1024 kbps","buffer":"8 MB","duration":"60 s"}`)
	add("simulate/mems-same-shape-as-disk", simulate, `{"device":{"name":"mems"},"rate":"1024 kbps","buffer":"8 MB","duration":"60 s"}`)
	add("simulate/vbr", simulate, `{`+simBase+`,"stream":"vbr"}`)
	add("simulate/vbr-seed-1-explicit", simulate, `{`+simBase+`,"stream":"vbr","seed":1}`)
	add("simulate/vbr-seed-7", simulate, `{`+simBase+`,"stream":"vbr","seed":7}`)
	add("simulate/video", simulate, `{`+videoBase+`}`)
	add("simulate/video-empty-object", simulate, `{`+videoBase+`,"video":{}}`)
	add("simulate/video-explicit-defaults", simulate, `{`+videoBase+`,"video":{"frame_rate":25,"gop_length":12,"ip_distance":3,"weight_i":5,"weight_p":3,"weight_b":1,"jitter":0.2}}`)
	add("simulate/video-gop-15", simulate, `{`+videoBase+`,"video":{"gop_length":15}}`)
	add("simulate/video-zero-jitter", simulate, `{`+videoBase+`,"video":{"jitter":0}}`)
	add("simulate/video-replicas-2", simulate, `{`+videoBase+`,"replicas":2}`)
	add("simulate/trace", simulate, `{"buffer":"64 KiB","duration":"10 s","stream":"trace","frames":`+traceFrames+`}`)
	add("simulate/trace-time-shifted", simulate, `{"buffer":"64 KiB","duration":"10 s","stream":"trace","frames":`+traceShifted+`}`)
	add("simulate/trace-other-size", simulate, `{"buffer":"64 KiB","duration":"10 s","stream":"trace","frames":[{"timestamp":0,"size":"6000bit","class":"I"},{"timestamp":0.04,"size":"4000bit"}]}`)

	// /v1/simulate rejections, in check order.
	add("simulate/unknown-device", simulate, `{"device":{"name":"floppy"},"rate":"1024 kbps","buffer":"64 KiB"}`)
	add("simulate/disk-overrides", simulate, `{"device":{"name":"disk","probe_write_cycles":200},"rate":"1024 kbps","buffer":"8 MB"}`)
	add("simulate/bad-stream-kind", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","stream":"chaos"}`)
	add("simulate/video-object-on-cbr", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","video":{"frame_rate":30}}`)
	add("simulate/frames-on-video", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","stream":"video","frames":[{"timestamp":0,"size":"4000bit"}]}`)
	add("simulate/trace-with-rate", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","stream":"trace","frames":[{"timestamp":0,"size":"4000bit"}]}`)
	add("simulate/trace-without-frames", simulate, `{"buffer":"64 KiB","stream":"trace"}`)
	add("simulate/trace-missing-timestamp", simulate, `{"buffer":"64 KiB","stream":"trace","frames":[{"size":"4000bit"}]}`)
	add("simulate/trace-bad-timestamp", simulate, `{"buffer":"64 KiB","stream":"trace","frames":[{"timestamp":"soon","size":"4000bit"}]}`)
	add("simulate/trace-missing-size", simulate, `{"buffer":"64 KiB","stream":"trace","frames":[{"timestamp":0}]}`)
	add("simulate/trace-bad-class", simulate, `{"buffer":"64 KiB","stream":"trace","frames":[{"timestamp":0,"size":"4000bit","class":"X"}]}`)
	add("simulate/trace-non-increasing", simulate, `{"buffer":"64 KiB","stream":"trace","frames":[{"timestamp":0,"size":"4000bit"},{"timestamp":0,"size":"4000bit"}]}`)
	add("simulate/trace-peak-above-media-rate", simulate, `{"buffer":"10 MiB","stream":"trace","frames":[{"timestamp":0,"size":"8Mbit"},{"timestamp":0.04,"size":"8Mbit"}]}`)
	add("simulate/missing-rate", simulate, `{"buffer":"64 KiB"}`)
	add("simulate/video-negative-frame-rate", simulate, `{`+videoBase+`,"video":{"frame_rate":-1}}`)
	add("simulate/video-negative-gop", simulate, `{`+videoBase+`,"video":{"gop_length":-1}}`)
	add("simulate/video-absurd-frame-rate", simulate, `{`+videoBase+`,"video":{"frame_rate":1e9}}`)
	add("simulate/video-absurd-gop", simulate, `{`+videoBase+`,"video":{"gop_length":100000}}`)
	add("simulate/video-bad-jitter", simulate, `{`+videoBase+`,"video":{"jitter":1.5}}`)
	add("simulate/video-anchor-beyond-gop", simulate, `{`+videoBase+`,"video":{"gop_length":2,"ip_distance":5}}`)
	add("simulate/video-peak-above-media-rate", simulate, `{"rate":"90 Mbps","buffer":"10 MiB","stream":"video"}`)
	add("simulate/missing-buffer", simulate, `{"rate":"1024 kbps"}`)
	add("simulate/zero-buffer", simulate, `{"rate":"1024 kbps","buffer":0}`)
	add("simulate/bad-duration", simulate, `{`+`"rate":"1024 kbps","buffer":"64 KiB","duration":"a while"}`)
	add("simulate/negative-duration", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","duration":"-5 s"}`)
	add("simulate/zero-duration", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","duration":0}`)
	add("simulate/duration-over-cap", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","duration":"100 years"}`)
	add("simulate/bad-best-effort", simulate, `{`+simBase+`,"best_effort":1.5}`)
	add("simulate/negative-best-effort", simulate, `{`+simBase+`,"best_effort":-0.1}`)
	add("simulate/too-many-replicas", simulate, `{`+simBase+`,"replicas":10000}`)
	add("simulate/negative-replicas", simulate, `{`+simBase+`,"replicas":-1}`)
	add("simulate/negative-workers", simulate, `{`+simBase+`,"workers":-2}`)
	add("simulate/rate-above-media-rate", simulate, `{"rate":"100 Gbps","buffer":"64 KiB"}`)
	add("simulate/disk-undersized-buffer", simulate, `{"device":{"name":"disk"},"rate":"1024 kbps","buffer":"64 KiB"}`)
	add("simulate/best-effort-before-replicas", simulate, `{`+simBase+`,"best_effort":2,"replicas":-1,"workers":-1}`)
	add("simulate/device-before-stream", simulate, `{"device":{"name":"floppy"},"rate":"1024 kbps","buffer":"64 KiB","stream":"chaos"}`)
	add("simulate/rate-before-video", simulate, `{"buffer":"64 KiB","stream":"video","video":{"jitter":2}}`)
	add("simulate/rate-before-buffer", simulate, `{"rate":"fast","buffer":"none"}`)
	add("simulate/buffer-before-duration", simulate, `{"rate":"1024 kbps","buffer":"none","duration":"-1 s"}`)
	add("simulate/duration-before-best-effort", simulate, `{"rate":"1024 kbps","buffer":"64 KiB","duration":"0 s","best_effort":2}`)
	add("simulate/replicas-before-workers", simulate, `{`+simBase+`,"replicas":-1,"workers":-1}`)

	// /v1/multisim.
	const multisim = "/v1/multisim"
	add("multisim/pair", multisim, `{"streams":`+multiPair+`,"duration":"10 s"}`)
	add("multisim/pair-rr-alias-workers", multisim, `{"policy":"rr","streams":`+multiPair+`,"duration":10,"workers":1}`)
	add("multisim/pair-explicit-defaults", multisim, `{"device":{"name":"default"},"policy":"round-robin","streams":[{"name":"playback","stream":"cbr","rate":1024000,"buffer":"128 KB","write_fraction":0,"priority":0},{"name":"recording","rate":"0.512 Mbps","buffer":65536,"write_fraction":1}],"duration":"10 s","best_effort":0.05,"seed":1,"replicas":1}`)
	add("multisim/pair-edf", multisim, `{"policy":"edf","streams":`+multiPair+`,"duration":"10 s"}`)
	add("multisim/pair-most-urgent", multisim, `{"policy":"most-urgent","streams":`+multiPair+`,"duration":"10 s"}`)
	add("multisim/pair-seed-3", multisim, `{"streams":`+multiPair+`,"duration":"10 s","seed":3}`)
	add("multisim/pair-replicas-2", multisim, `{"streams":`+multiPair+`,"duration":"10 s","replicas":2}`)
	add("multisim/default-write-fraction", multisim, `{"streams":[{"name":"a","rate":"1024 kbps","buffer":"128 KB"}],"duration":"10 s"}`)
	add("multisim/explicit-write-fraction", multisim, `{"streams":[{"name":"a","rate":"1024 kbps","buffer":"128 KB","write_fraction":0.4}],"duration":"10 s"}`)
	add("multisim/renamed-stream", multisim, `{"streams":[{"name":"b","rate":"1024 kbps","buffer":"128 KB"}],"duration":"10 s"}`)
	add("multisim/prio", multisim, `{"policy":"prio","streams":[{"name":"movie","rate":"1024 kbps","buffer":"256 KB","priority":1},{"name":"camera","rate":"512 kbps","buffer":"128 KB","write_fraction":1}],"duration":"10 s"}`)
	add("multisim/priority-alias", multisim, `{"policy":"priority","streams":[{"name":"movie","rate":"1024 kbps","buffer":"256 KB","priority":1},{"name":"camera","rate":"512 kbps","buffer":"128 KB","write_fraction":1,"priority":0}],"duration":"10 s"}`)
	add("multisim/prio-swapped", multisim, `{"policy":"prio","streams":[{"name":"movie","rate":"1024 kbps","buffer":"256 KB"},{"name":"camera","rate":"512 kbps","buffer":"128 KB","write_fraction":1,"priority":1}],"duration":"10 s"}`)
	add("multisim/vbr-video", multisim, `{"streams":[{"name":"v","stream":"vbr","rate":"768 kbps","buffer":"128 KB"},{"name":"m","stream":"video","rate":"1024 kbps","buffer":"256 KB"}],"duration":"10 s"}`)
	add("multisim/vbr-video-explicit-defaults", multisim, `{"streams":[{"name":"v","stream":"vbr","rate":"768 kbps","buffer":"128 KB"},{"name":"m","stream":"video","rate":"1024 kbps","buffer":"256 KB","video":{"frame_rate":25,"gop_length":12,"ip_distance":3,"weight_i":5,"weight_p":3,"weight_b":1,"jitter":0.2}}],"duration":"10 s"}`)
	add("multisim/vbr-video-seed-2", multisim, `{"streams":[{"name":"v","stream":"vbr","rate":"768 kbps","buffer":"128 KB"},{"name":"m","stream":"video","rate":"1024 kbps","buffer":"256 KB"}],"duration":"10 s","seed":2}`)
	add("multisim/disk", multisim, `{"device":{"name":"disk"},"streams":[{"name":"playback","rate":"1024 kbps","buffer":"4 MB","write_fraction":0},{"name":"recording","rate":"512 kbps","buffer":"2 MB","write_fraction":1}],"duration":"60 s"}`)
	add("multisim/mems-same-shape-as-disk", multisim, `{"device":{"name":"mems"},"streams":[{"name":"playback","rate":"1024 kbps","buffer":"4 MB","write_fraction":0},{"name":"recording","rate":"512 kbps","buffer":"2 MB","write_fraction":1}],"duration":"60 s"}`)
	add("multisim/video-gop-15", multisim, `{"streams":[{"name":"v","stream":"vbr","rate":"768 kbps","buffer":"128 KB"},{"name":"m","stream":"video","rate":"1024 kbps","buffer":"256 KB","video":{"gop_length":15}}],"duration":"10 s"}`)

	// /v1/multisim rejections, in check order.
	add("multisim/unknown-device", multisim, `{"device":{"name":"floppy"},"streams":`+multiPair+`}`)
	add("multisim/unknown-policy", multisim, `{"policy":"fifo","streams":`+multiPair+`}`)
	add("multisim/no-streams", multisim, `{"streams":[]}`)
	add("multisim/too-many-streams", multisim, `{"streams":[`+strings.Repeat(`{"name":"s","rate":"8 kbps","buffer":"8 KB"},`, MaxMultiStreams)+`{"name":"s","rate":"8 kbps","buffer":"8 KB"}]}`)
	add("multisim/missing-name", multisim, `{"streams":[{"rate":"1 Mbps","buffer":"128 KB"}]}`)
	add("multisim/unknown-kind", multisim, `{"streams":[{"name":"a","stream":"trace","rate":"1 Mbps","buffer":"128 KB"}]}`)
	add("multisim/video-object-on-cbr", multisim, `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB","video":{}}]}`)
	add("multisim/missing-rate", multisim, `{"streams":[{"name":"a","buffer":"128 KB"}]}`)
	add("multisim/bad-buffer", multisim, `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"-1 KB"}]}`)
	add("multisim/bad-write-fraction", multisim, `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB","write_fraction":1.5}]}`)
	add("multisim/video-bad-jitter", multisim, `{"streams":[{"name":"a","stream":"video","rate":"1 Mbps","buffer":"128 KB","video":{"jitter":-0.5}}]}`)
	add("multisim/second-stream-invalid", multisim, `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"128 KB"},{"name":"b","rate":"1 Mbps"}]}`)
	add("multisim/bad-duration", multisim, `{"streams":`+multiPair+`,"duration":"0 s"}`)
	add("multisim/duration-over-cap", multisim, `{"streams":`+multiPair+`,"duration":"2 days"}`)
	add("multisim/bad-best-effort", multisim, `{"best_effort":1.5,"streams":`+multiPair+`}`)
	add("multisim/too-many-replicas", multisim, `{"replicas":257,"streams":`+multiPair+`}`)
	add("multisim/negative-workers", multisim, `{"workers":-1,"streams":`+multiPair+`}`)
	add("multisim/inadmissible-aggregate", multisim, `{"streams":[{"name":"a","rate":"60 Mbps","buffer":"8 MB"},{"name":"b","rate":"60 Mbps","buffer":"8 MB"}]}`)
	add("multisim/peak-above-media-rate", multisim, `{"streams":[{"name":"a","stream":"vbr","rate":"90 Mbps","buffer":"8 MB"}]}`)
	add("multisim/undersized-buffer", multisim, `{"streams":[{"name":"a","rate":"1 Mbps","buffer":"64 bit"}]}`)
	add("multisim/disk-overrides", multisim, `{"device":{"name":"disk","spring_duty_cycles":5},"streams":`+multiPair+`}`)
	add("multisim/device-before-policy", multisim, `{"device":{"name":"floppy"},"policy":"fifo","streams":[]}`)
	add("multisim/policy-before-streams", multisim, `{"policy":"fifo","streams":[]}`)
	add("multisim/streams-before-duration", multisim, `{"streams":[],"duration":"0 s"}`)
	add("multisim/duration-before-best-effort", multisim, `{"streams":`+multiPair+`,"duration":"0 s","best_effort":2}`)
	add("multisim/replicas-before-workers", multisim, `{"streams":`+multiPair+`,"replicas":-1,"workers":-1}`)

	// /v1/breakeven.
	const breakeven = "/v1/breakeven"
	add("breakeven/base", breakeven, `{"rate":"1024 kbps"}`)
	add("breakeven/bare-number-and-alias", breakeven, `{"device":{"name":"mems"},"rate":1024000}`)
	add("breakeven/improved", breakeven, `{"device":{"name":"improved"},"rate":"1024 kbps"}`)
	add("breakeven/4096kbps", breakeven, `{"rate":"4096 kbps"}`)
	add("breakeven/32kbps", breakeven, `{"rate":"32 kbps"}`)
	add("breakeven/missing-rate", breakeven, `{}`)
	add("breakeven/bad-rate", breakeven, `{"rate":"quick"}`)
	add("breakeven/disk-device", breakeven, `{"device":{"name":"disk"},"rate":"1024 kbps"}`)
	add("breakeven/unknown-device", breakeven, `{"device":{"name":"tape"},"rate":"1024 kbps"}`)
	add("breakeven/unknown-field", breakeven, `{"rate":"1024 kbps","goal":`+goalJSON+`}`)
	add("breakeven/device-before-rate", breakeven, `{"device":{"name":"tape"},"rate":"quick"}`)

	// /v1/multistream.
	const multistream = "/v1/multistream"
	add("multistream/pair", multistream, `{"goal":`+goalJSON+`,"streams":`+mixPair+`}`)
	add("multistream/pair-respelled", multistream, `{"device":{"name":"default"},"goal":{"energy_saving":0.7,"capacity_utilisation":0.88,"lifetime":"7 yr"},"streams":[{"name":"record","rate":768000,"write_fraction":1},{"name":"play","rate":"0.512 Mbps","write_fraction":0}],"count_inter_stream_seeks":false}`)
	add("multistream/pair-inter-stream-seeks", multistream, `{"goal":`+goalJSON+`,"streams":`+mixPair+`,"count_inter_stream_seeks":true}`)
	add("multistream/pair-improved", multistream, `{"device":{"name":"improved"},"goal":`+goalJSON+`,"streams":`+mixPair+`}`)
	add("multistream/pair-swapped-order", multistream, `{"goal":`+goalJSON+`,"streams":[{"name":"play","rate":"512 kbps","write_fraction":0},{"name":"record","rate":"768 kbps","write_fraction":1}]}`)
	add("multistream/infeasible-mix", multistream, `{"goal":`+goalJSON+`,"streams":[{"name":"a","rate":"8 Mbps","write_fraction":1},{"name":"b","rate":"8 Mbps","write_fraction":1}]}`)
	add("multistream/no-streams", multistream, `{"goal":`+goalJSON+`,"streams":[]}`)
	add("multistream/too-many-streams", multistream, `{"goal":`+goalJSON+`,"streams":[`+strings.Repeat(`{"name":"s","rate":"8 kbps","write_fraction":0},`, MaxMultiStreams)+`{"name":"s","rate":"8 kbps","write_fraction":0}]}`)
	add("multistream/bad-rate", multistream, `{"goal":`+goalJSON+`,"streams":[{"name":"a","rate":"fast","write_fraction":1}]}`)
	add("multistream/bad-write-fraction", multistream, `{"goal":`+goalJSON+`,"streams":[{"name":"a","rate":"768 kbps","write_fraction":2}]}`)
	add("multistream/inadmissible-mix", multistream, `{"goal":`+goalJSON+`,"streams":[{"name":"a","rate":"300 Mbps","write_fraction":1}]}`)
	add("multistream/bad-goal", multistream, `{"goal":{"energy_saving":-1,"capacity_utilisation":0.88,"lifetime":"7 years"},"streams":`+mixPair+`}`)
	add("multistream/disk-device", multistream, `{"device":{"name":"disk"},"goal":`+goalJSON+`,"streams":`+mixPair+`}`)
	add("multistream/device-before-goal", multistream, `{"device":{"name":"disk"},"goal":{"energy_saving":-1,"capacity_utilisation":0.88,"lifetime":"7 years"},"streams":[]}`)
	add("multistream/goal-before-streams", multistream, `{"goal":{"energy_saving":-1,"capacity_utilisation":0.88,"lifetime":"7 years"},"streams":[]}`)
	add("multistream/second-stream-invalid", multistream, `{"goal":`+goalJSON+`,"streams":[{"name":"a","rate":"768 kbps","write_fraction":1},{"name":"b","rate":"512 kbps","write_fraction":-1}]}`)
	return c
}

// serveContract serves the corpus through one Service's handler, in order.
func serveContract(t *testing.T) []contractRecord {
	t.Helper()
	svc := New(Config{})
	h := svc.Handler()
	corpus := contractCorpus()
	out := make([]contractRecord, len(corpus))
	for i, c := range corpus {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		out[i] = contractRecord{
			Name:     c.name,
			Path:     c.path,
			Body:     c.body,
			Status:   rec.Code,
			Response: json.RawMessage(bytes.Clone(rec.Body.Bytes())),
			Entries:  svc.CacheStats().Entries,
		}
	}
	return out
}

func TestHTTPContractMatchesGolden(t *testing.T) {
	got := serveContract(t)
	// Keep the corpus honest: every /v1 endpoint appears with at least one
	// answer and one rejection.
	for _, ep := range []string{"dimension", "sweep", "simulate", "multisim", "breakeven", "multistream"} {
		var answered, rejected bool
		for _, r := range got {
			if r.Path == "/v1/"+ep {
				answered = answered || r.Status == http.StatusOK
				rejected = rejected || r.Status == http.StatusBadRequest
			}
		}
		if !answered || !rejected {
			t.Errorf("/v1/%s: answered %t, rejected %t; the corpus needs both", ep, answered, rejected)
		}
	}
	if os.Getenv("MEMSTREAM_WRITE_GOLDEN") == "1" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(contractGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contractGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records)", contractGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(contractGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with MEMSTREAM_WRITE_GOLDEN=1): %v", err)
	}
	var want []contractRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d records, the corpus has %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Path != w.Path || g.Body != w.Body {
			t.Errorf("record %d: corpus entry %s %s diverges from the golden's %s %s", i, g.Name, g.Path, w.Name, w.Path)
			continue
		}
		// The service writes compact JSON, so the compacted golden response
		// is the exact byte string it must send.
		var wantBody bytes.Buffer
		if err := json.Compact(&wantBody, w.Response); err != nil {
			t.Fatalf("%s: golden response: %v", w.Name, err)
		}
		if g.Status != w.Status || !bytes.Equal(g.Response, wantBody.Bytes()) {
			t.Errorf("%s: got %d %.300s\nwant %d %.300s", w.Name, g.Status, g.Response, w.Status, wantBody.Bytes())
		}
		if g.Entries != w.Entries {
			t.Errorf("%s: %d cache entries after the request, want %d", w.Name, g.Entries, w.Entries)
		}
	}
}
