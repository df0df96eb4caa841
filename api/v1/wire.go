// Package v1 is the versioned wire schema of the MEPipe planning service
// (cmd/mepipe-serve) and its CLIs: one canonical JSON request document
// describing (model, cluster, parallel grid, training config) drives
// POST /v1/search, /v1/simulate, /v1/optimize and /v1/trace over HTTP as
// well as
// `mepipe-sim -f` and `mepipe-search -f` on the command line, so a request
// is a portable artifact that means the same thing everywhere.
//
// The schema is versioned: every document may carry `"api": "v1"` (empty
// means v1), every response echoes it, and field names are frozen — new
// fields may be added, existing names never change meaning. Requests
// normalize to a canonical form (presets expanded, defaults filled, search
// lists sorted) whose SHA-256 is the service's cache and coalescing key;
// see Key. docs/SERVE.md documents the API end to end.
package v1

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the wire version this package speaks.
const Version = "v1"

// ErrBadRequest classifies malformed request documents: syntactically
// invalid JSON, unknown fields, an unsupported api version, or missing
// required fields. The planning server maps it to HTTP 400, distinct from
// the 422 family (ErrOOM / ErrIncompatible / ErrUncertified) that marks
// well-formed requests whose configuration cannot be served.
var ErrBadRequest = errors.New("bad request")

// PlanRequest is the planning document shared by every planning entry
// point. Search uses (system, model, cluster, training, space); simulate
// and trace additionally require parallel. Fields left zero are filled by
// Normalize with the same defaults the CLIs apply.
type PlanRequest struct {
	// API is the wire version; empty means "v1". Any other value is
	// rejected with ErrBadRequest.
	API string `json:"api,omitempty"`
	// System names the scheduling system: mepipe, dapple, vpp, zb, zbv,
	// terapipe or gpipe (case-insensitive).
	System string `json:"system"`

	Model    ModelSpec    `json:"model"`
	Cluster  ClusterSpec  `json:"cluster"`
	Training TrainingSpec `json:"training"`

	// Parallel pins one strategy (required by simulate and trace,
	// ignored by search).
	Parallel *ParallelSpec `json:"parallel,omitempty"`
	// Space bounds the search grid (search only); nil selects the
	// paper's default space.
	Space *SpaceSpec `json:"space,omitempty"`

	// Top caps the number of ranked candidates a search response
	// carries; 0 returns all of them.
	Top int `json:"top,omitempty"`
}

// ModelSpec selects a model either by preset name or by its full
// dimensions. When Preset is set every other field must be zero; Normalize
// expands the preset into explicit dimensions so equivalent spellings hash
// identically.
type ModelSpec struct {
	// Preset is a catalog name: llama-7b, llama-13b or llama-34b
	// (7b/13b/34b shorthands accepted).
	Preset string `json:"preset,omitempty"`

	Name       string `json:"name,omitempty"`
	HiddenSize int    `json:"hidden_size,omitempty"`
	NumLayers  int    `json:"num_layers,omitempty"`
	NumHeads   int    `json:"num_heads,omitempty"`
	NumKVHeads int    `json:"num_kv_heads,omitempty"`
	FFNHidden  int    `json:"ffn_hidden,omitempty"`
	VocabSize  int    `json:"vocab_size,omitempty"`
	SeqLen     int    `json:"seq_len,omitempty"`
}

// ClusterSpec selects a modelled cluster. Preset picks a whole testbed
// ("rtx4090" or "a100", with the paper's default server counts);
// otherwise GPU names a catalog accelerator and GPUsPerServer/Servers size
// the cluster explicitly.
type ClusterSpec struct {
	// Preset is a testbed name: rtx4090 (8 servers x 8 GPUs on PCIe +
	// 100G IB) or a100 (4 servers x 8 on NVLink + 800G IB).
	Preset string `json:"preset,omitempty"`

	// GPU is a catalog accelerator name (rtx4090 or a100) for explicit
	// sizing.
	GPU           string `json:"gpu,omitempty"`
	GPUsPerServer int    `json:"gpus_per_server,omitempty"`
	// Servers overrides the preset's server count (or sizes an explicit
	// cluster).
	Servers int `json:"servers,omitempty"`
}

// ParallelSpec mirrors config.Parallel on the wire.
type ParallelSpec struct {
	PP  int `json:"pp"`
	DP  int `json:"dp,omitempty"`
	CP  int `json:"cp,omitempty"`
	SPP int `json:"spp,omitempty"`
	VP  int `json:"vp,omitempty"`
	TP  int `json:"tp,omitempty"`
	// Recompute is none (default), selective or full.
	Recompute string `json:"recompute,omitempty"`
}

// TrainingSpec mirrors config.Training on the wire.
type TrainingSpec struct {
	GlobalBatch int `json:"global_batch"`
	MicroBatch  int `json:"micro_batch,omitempty"` // default 1
}

// SpaceSpec mirrors strategy.SearchSpace on the wire. Normalize sorts and
// deduplicates the lists (the ranked result is independent of enumeration
// order), so equivalent spaces hash identically.
type SpaceSpec struct {
	PP    []int `json:"pp,omitempty"`
	CP    []int `json:"cp,omitempty"`
	SPP   []int `json:"spp,omitempty"`
	VP    []int `json:"vp,omitempty"`
	MinDP int   `json:"min_dp,omitempty"`
	Prune bool  `json:"prune,omitempty"`
}

// TraceRequest is a PlanRequest plus the export format for /v1/trace.
type TraceRequest struct {
	PlanRequest
	// Format selects the exporter: "chrome" (default; Chrome trace-event
	// JSON for Perfetto) or "jsonl".
	Format string `json:"format,omitempty"`
}

// OptSpec tunes the schedule optimizer behind POST /v1/optimize. Zero
// fields are filled by OptimizeRequest.Normalize with the wire defaults
// (seed 1, the optimizer's standard round and proposal counts), so
// equivalent spellings hash identically. The spec is part of the cache
// key: the optimizer is deterministic in it.
type OptSpec struct {
	// Seed drives the deterministic annealing trajectory.
	Seed int64 `json:"seed,omitempty"`
	// Iters is the number of annealing rounds.
	Iters int `json:"iters,omitempty"`
	// Proposals is the number of candidates per round (part of the
	// trajectory, unlike worker count — which is why it is on the wire
	// and worker count is not).
	Proposals int `json:"proposals,omitempty"`
}

// OptimizeRequest asks /v1/optimize to anneal the preset schedule of one
// pinned configuration: a PlanRequest (parallel required, like simulate)
// plus the optimizer settings.
type OptimizeRequest struct {
	PlanRequest
	Opt *OptSpec `json:"opt,omitempty"`
}

// CertifyRequest asks /v1/certify to statically certify a schedule
// artifact (the JSON produced by Schedule.Save).
type CertifyRequest struct {
	API string `json:"api,omitempty"`
	// Schedule is the schedule document itself, embedded verbatim.
	Schedule json.RawMessage `json:"schedule"`
	// SlotBudget, when present, additionally certifies the static sweep
	// against per-stage family-slot caps (unit footprints).
	SlotBudget []int `json:"slot_budget,omitempty"`
}

// Candidate is one evaluated configuration in a response: the wire form
// of a strategy evaluation.
type Candidate struct {
	Parallel     ParallelSpec `json:"parallel"`
	MicroBatches int          `json:"micro_batches"`
	OOM          bool         `json:"oom,omitempty"`
	OOMWhy       string       `json:"oom_why,omitempty"`
	IterTimeS    float64      `json:"iter_time_s,omitempty"`
	Bubble       float64      `json:"bubble,omitempty"`
	PeakActBytes int64        `json:"peak_act_bytes,omitempty"`
	BudgetBytes  int64        `json:"budget_bytes,omitempty"`
	// F is the chosen SVPP forwards-in-flight variant (MEPipe only).
	F            int     `json:"f,omitempty"`
	TFLOPSPerGPU float64 `json:"tflops_per_gpu,omitempty"`
	MFU          float64 `json:"mfu,omitempty"`
}

// SearchResponse is the body of a successful POST /v1/search.
type SearchResponse struct {
	API    string `json:"api"`
	Key    string `json:"key"` // the request's canonical cache key
	System string `json:"system"`
	// Certified reports that every simulated candidate passed static
	// certification (deadlock-freedom, completeness) before it was
	// timed — the server never serves an uncertified schedule.
	Certified  bool        `json:"certified"`
	Found      bool        `json:"found"`
	Best       *Candidate  `json:"best,omitempty"`
	Candidates []Candidate `json:"candidates"`
	Evaluated  int         `json:"evaluated"`
	Pruned     int         `json:"pruned,omitempty"`
}

// Breakdown is the mean per-stage utilisation of a simulated iteration,
// as fractions of the makespan.
type Breakdown struct {
	Forward  float64 `json:"forward"`
	Backward float64 `json:"backward"`
	Weight   float64 `json:"weight"`
	Tail     float64 `json:"tail"`
	Idle     float64 `json:"idle"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	API       string    `json:"api"`
	Key       string    `json:"key"`
	System    string    `json:"system"`
	Certified bool      `json:"certified"`
	Candidate Candidate `json:"candidate"`
	Breakdown Breakdown `json:"breakdown"`
}

// OptimizeResponse is the body of a successful POST /v1/optimize: what
// the preset cost, what the search discovered, the search counters, and
// the discovered schedule itself as a portable Schedule.Save document
// (feed it back to /v1/certify, or load it with mepipe.LoadSchedule).
type OptimizeResponse struct {
	API    string `json:"api"`
	Key    string `json:"key"`
	System string `json:"system"`
	// Certified reports that the discovered schedule passed full static
	// certification — deadlock-freedom, completeness and the
	// configuration's byte-accurate memory budget — before it was
	// served. Always true on a 2xx reply.
	Certified    bool         `json:"certified"`
	Parallel     ParallelSpec `json:"parallel"`
	MicroBatches int          `json:"micro_batches"`
	// F is the chosen SVPP forwards-in-flight variant (MEPipe only).
	F   int     `json:"f,omitempty"`
	Opt OptSpec `json:"opt"`

	// StartedFrom names the schedule the annealer started from. It is
	// always "preset", the only seed; the field stays for v1 clients.
	StartedFrom string `json:"started_from"`
	// BaseIterTimeS is the preset schedule's simulated iteration time,
	// BestIterTimeS the discovered schedule's; Gain the fractional
	// improvement over the preset.
	BaseIterTimeS float64 `json:"base_iter_time_s"`
	BestIterTimeS float64 `json:"best_iter_time_s"`
	Gain          float64 `json:"gain"`

	// Search counters: candidates proposed, rejected by certification
	// before simulation, simulated, accepted, and global improvements.
	Proposed   int `json:"proposed"`
	Infeasible int `json:"infeasible"`
	Evaluated  int `json:"evaluated"`
	Accepted   int `json:"accepted"`
	Improved   int `json:"improved"`

	Schedule json.RawMessage `json:"schedule"`
}

// CertifyResponse is the body of a successful POST /v1/certify: the
// certificate's evidence, mirroring verify.Certificate.
type CertifyResponse struct {
	API          string  `json:"api"`
	Schedule     string  `json:"schedule"`
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	CrossEdges   int     `json:"cross_edges"`
	PeakFamilies []int   `json:"peak_families"`
	PeakBytes    []int64 `json:"peak_bytes,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	API string `json:"api"`
	// Code classifies the failure: bad_request, oom, incompatible,
	// uncertified, cancelled or internal.
	Code  string `json:"code"`
	Error string `json:"error"`
}

// EndpointStats is one endpoint's counters in GET /v1/stats.
type EndpointStats struct {
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Hits      int64 `json:"cache_hits"`
	Misses    int64 `json:"cache_misses"`
	Coalesced int64 `json:"coalesced"`
	// Latency of served requests in seconds. The quantiles are
	// interpolated within the fixed decade buckets of obs.Histogram.
	LatencyMeanS float64 `json:"latency_mean_s"`
	LatencyMaxS  float64 `json:"latency_max_s"`
	LatencyP50S  float64 `json:"latency_p50_s"`
	LatencyP90S  float64 `json:"latency_p90_s"`
	LatencyP99S  float64 `json:"latency_p99_s"`
}

// CacheStats sizes the content-addressed response cache in GET /v1/stats.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	API       string                   `json:"api"`
	UptimeS   float64                  `json:"uptime_s"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Cache     CacheStats               `json:"cache"`
}

// decode decodes one strict JSON document (unknown fields rejected) into
// dst, classifying every failure as ErrBadRequest.
func decode(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// Trailing garbage after the document is a malformed request too.
	if dec.More() {
		return fmt.Errorf("%w: trailing data after request document", ErrBadRequest)
	}
	return nil
}

// DecodePlanRequest reads one strict PlanRequest document. Unknown fields
// are rejected (misspelled field names must not silently change what a
// request means), and every failure wraps ErrBadRequest.
func DecodePlanRequest(r io.Reader) (*PlanRequest, error) {
	var req PlanRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeTraceRequest reads one strict TraceRequest document.
func DecodeTraceRequest(r io.Reader) (*TraceRequest, error) {
	var req TraceRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeOptimizeRequest reads one strict OptimizeRequest document.
func DecodeOptimizeRequest(r io.Reader) (*OptimizeRequest, error) {
	var req OptimizeRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeCertifyRequest reads one strict CertifyRequest document.
func DecodeCertifyRequest(r io.Reader) (*CertifyRequest, error) {
	var req CertifyRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if len(req.Schedule) == 0 {
		return nil, fmt.Errorf("%w: certify request has no schedule document", ErrBadRequest)
	}
	if err := checkAPI(req.API); err != nil {
		return nil, err
	}
	return &req, nil
}
