// Package serve is the MEPipe planning service: a zero-dependency
// net/http JSON server that turns the strategy search, the simulator and
// the static certifier into long-running, heavily cacheable endpoints.
//
//	POST /v1/search    grid-search a system over a cluster (cached, coalesced)
//	POST /v1/sweep     grid-search several systems in one pass (cached, coalesced)
//	POST /v1/simulate  evaluate one pinned strategy (cached, coalesced)
//	POST /v1/optimize  anneal one pinned strategy's schedule (cached, coalesced)
//	POST /v1/certify   statically certify a schedule artifact
//	POST /v1/trace     simulate and export the span-event stream
//	GET  /v1/stats     per-endpoint counters, latencies, cache occupancy
//	GET  /healthz      liveness
//
// Requests are api/v1 documents, their bodies capped at MaxBodyBytes. The
// four cached endpoints share one request path (serveCached): the body is
// read once and hashed, and bytes the server has already answered are
// served from the LRU cache through that raw-body digest, with no decoding
// at all. Any other body goes to v1.ReadPlan, which decodes and normalizes
// the document once into its plan and the SHA-256 of its canonical form,
// which keys the cache; identical in-flight requests coalesce onto one
// underlying computation, and the X-Mepipe-Cache response header says which
// path served each reply (hit, miss or coalesced). Every result is certified
// before it is served — the strategy layer statically proves each
// simulated schedule deadlock-free and complete. Per-request cancellation
// rides on the existing ErrCancelled plumbing: a disconnected client
// abandons its wait, and a computation every client has abandoned is
// cancelled mid-search. See docs/SERVE.md.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mepipe"
	v1 "mepipe/api/v1"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// StatusClientClosedRequest is the nginx-convention status for requests
// abandoned by the client before the response was ready (there is no
// standard code; 499 is the de-facto one).
const StatusClientClosedRequest = 499

// DefaultCacheSize bounds the response cache when Options.CacheSize is
// zero.
const DefaultCacheSize = 512

// MaxBodyBytes caps every POST body; a longer one is refused with 413
// too_large before it is decoded, hashed or cached. The largest documents
// are /v1/certify's schedules. The largest in the repository's tests and
// examples is the checked-in discovered schedule (internal/opt/testdata,
// 9 KB), which /v1/optimize returns for feeding back to /v1/certify; a
// saved 32-stage MEPipe schedule with 128 micro-batches is 2.6 MB. 4 MiB
// is over 400 times the first and still above the second.
const MaxBodyBytes = 4 << 20

// errTooLarge marks a request body over MaxBodyBytes.
var errTooLarge = errors.New("request too large: body exceeds the 4 MiB cap")

// Backend computes what the endpoints serve. The zero value routes
// through the public facade (mepipe.Search / mepipe.Evaluate); tests
// substitute stubs to count and steer computations.
type Backend struct {
	Search   func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace, sink obs.Sink) (*mepipe.SearchResult, error)
	Evaluate func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error)
	Optimize func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, o mepipe.OptimizeOptions, sink obs.Sink) (*mepipe.Optimized, error)
	// Sweep takes no sink: a sweep response carries no trace, so the
	// server never taps it (trace one point through /v1/trace instead).
	Sweep func(ctx context.Context, systems []mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace) (*mepipe.SweepResult, error)
}

// facadeBackend fills the zero fields of a Backend with the facade entry
// points.
func facadeBackend(b Backend) Backend {
	if b.Search == nil {
		b.Search = func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace, sink obs.Sink) (*mepipe.SearchResult, error) {
			return mepipe.Search(ctx, sys, m, cl, tr, sp, mepipe.WithTrace(sink))
		}
	}
	if b.Evaluate == nil {
		b.Evaluate = func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			return mepipe.Evaluate(ctx, sys, m, cl, par, tr, mepipe.WithTrace(sink))
		}
	}
	if b.Optimize == nil {
		b.Optimize = func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, o mepipe.OptimizeOptions, sink obs.Sink) (*mepipe.Optimized, error) {
			return mepipe.OptimizeEval(ctx, sys, m, cl, par, tr, o, mepipe.WithTrace(sink))
		}
	}
	if b.Sweep == nil {
		b.Sweep = mepipe.Sweep
	}
	return b
}

// Options configures a Server.
type Options struct {
	// CacheSize bounds the response cache in entries (default
	// DefaultCacheSize; negative disables caching).
	CacheSize int
	// Timeout bounds each request's wait for a result; zero means no
	// bound. A timed-out wait is reported exactly like a client
	// disconnect (499 cancelled) and does not kill a computation other
	// clients still wait on.
	Timeout time.Duration
	// Sink, when non-nil, receives the structured span events of every
	// computed (non-cached) search and simulation — the server-side tap
	// into the obs layer.
	Sink obs.Sink
	// Backend substitutes the computation functions (tests); zero fields
	// use the facade.
	Backend Backend
	// BaseContext parents every coalesced computation; closing it (server
	// shutdown) cancels all in-flight work. Nil means Background.
	BaseContext context.Context
	// Clock overrides the wall clock (tests). Nil means the real clock.
	Clock Clock
}

// Server is the planning service. Create with New, expose with Handler.
type Server struct {
	backend Backend
	cache   *lruCache
	group   *coalescer
	metrics *metrics
	sink    obs.Sink
	timeout time.Duration
	now     Clock
	mux     *http.ServeMux
	// noAlias serves every cached-endpoint request through the full
	// decode-and-compile path, never through a raw-body digest (tests).
	noAlias bool
}

// New builds a Server.
func New(opts Options) *Server {
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	now := opts.Clock
	if now == nil {
		now = realClock
	}
	s := &Server{
		backend: facadeBackend(opts.Backend),
		cache:   newLRUCache(size),
		group:   newCoalescer(opts.BaseContext),
		metrics: newMetrics(now()),
		sink:    opts.Sink,
		timeout: opts.Timeout,
		now:     now,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.serveCached("search", s.computeSearch))
	mux.HandleFunc("POST /v1/sweep", s.serveCached("sweep", s.computeSweep))
	mux.HandleFunc("POST /v1/simulate", s.serveCached("simulate", s.computeSimulate))
	mux.HandleFunc("POST /v1/optimize", s.serveCached("optimize", s.computeOptimize))
	mux.HandleFunc("POST /v1/certify", s.handleCertify)
	mux.HandleFunc("POST /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Inflight returns the number of distinct computations currently running
// (exposed for tests and shutdown diagnostics).
func (s *Server) Inflight() int { return s.group.Inflight() }

// statusFor maps an error chain to its HTTP status and wire error code:
// the sentinel-to-status contract of the v1 API.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, v1.ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, errs.ErrCancelled):
		return StatusClientClosedRequest, "cancelled"
	case errors.Is(err, errs.ErrOOM):
		return http.StatusUnprocessableEntity, "oom"
	case errors.Is(err, errs.ErrIncompatible):
		return http.StatusUnprocessableEntity, "incompatible"
	case errors.Is(err, errs.ErrUncertified):
		return http.StatusUnprocessableEntity, "uncertified"
	}
	return http.StatusInternalServerError, "internal"
}

// cacheHeader is the response header naming how a request was satisfied.
const cacheHeader = "X-Mepipe-Cache"

// request plumbing ---------------------------------------------------------

// reqCtx derives the context a request waits under: the client's own
// context, bounded by the server timeout when one is configured.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout > 0 {
		return context.WithTimeout(r.Context(), s.timeout)
	}
	return context.WithCancel(r.Context())
}

// readBody reads r's body once, through the MaxBodyBytes cap, into one
// buffer that starts with prefix. A body over the cap fails with
// errTooLarge; any other read failure is a bad request.
func readBody(w http.ResponseWriter, r *http.Request, prefix string) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	size := 512
	if r.ContentLength >= 0 && r.ContentLength <= MaxBodyBytes {
		size = int(r.ContentLength) + 1 // room for the read that sees EOF
	}
	buf := append(make([]byte, 0, len(prefix)+size), prefix...)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			// MaxBytesReader returns its *MaxBytesError unwrapped.
			if _, ok := err.(*http.MaxBytesError); ok {
				return nil, errTooLarge
			}
			return nil, fmt.Errorf("%w: reading body: %v", v1.ErrBadRequest, err)
		}
	}
}

// readPlan runs v1.ReadPlan over a body already read. It is a function of
// its own so that bytes.NewReader inlines: in serveCached's per-endpoint
// closures the compiler calls an out-of-line copy, whose text shifts every
// package linked after bytes by 32 bytes mod 64, and the benchmark's
// calibration is sensitive to that (scripts/layoutdiff.sh).
func readPlan(op string, raw []byte) (*v1.Plan, string, error) {
	return v1.ReadPlan(op, bytes.NewReader(raw))
}

// writeJSON writes one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// fail writes the mapped ErrorResponse for err.
func fail(w http.ResponseWriter, err error) (status int) {
	status, code := statusFor(err)
	body, merr := json.Marshal(v1.ErrorResponse{API: v1.Version, Code: code, Error: err.Error()})
	if merr != nil {
		// Marshaling a struct of strings cannot fail; keep the contract
		// anyway.
		http.Error(w, err.Error(), status)
		return status
	}
	writeJSON(w, status, body)
	return status
}

// reply writes one request's outcome (body on success, the mapped
// ErrorResponse otherwise) and records it, timed from t0, the request's
// entry.
func (s *Server) reply(w http.ResponseWriter, endpoint string, t0 time.Time, outcome cacheOutcome, body []byte, err error) {
	status := http.StatusOK
	if err != nil {
		status = fail(w, err)
	} else {
		w.Header().Set(cacheHeader, string(outcome))
		writeJSON(w, status, body)
	}
	s.metrics.observe(endpoint, status, outcome, sinceSeconds(s.now, t0))
}

// encode marshals one response body.
func encode(what string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding %s: %w", what, err)
	}
	return body, nil
}

// cached endpoints ---------------------------------------------------------

// serveCached returns the one request path of the cached endpoints
// (/v1/search, /v1/sweep, /v1/simulate, /v1/optimize): read the body once,
// serve bytes already answered through their raw-body digest, else decode
// and compile op's document once, look its canonical key up, else coalesce
// onto one computation, cache its encoded body, and label the reply.
//
// A digest is attached to a cache entry only once its document compiled to
// that entry's key: on a full-path hit, and at the Put after a successful
// computation. Bodies that fail to read, decode or compile, and failed
// computations, always take the full path. This is sound because compiling
// is a pure function of the bytes and op (v1.ReadPlan).
//
// The handler is a deterministic entry point, modulo the audited Clock seam
// (latency metrics): a given request body must always produce the same
// response.
//
//mepipe:deterministic
func (s *Server) serveCached(op string, compute func(ctx context.Context, key string, plan *v1.Plan) ([]byte, error)) http.HandlerFunc {
	endpoint := "/v1/" + op
	tag := op + "\x00" // the digest's endpoint tag and separator
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := s.now()
		buf, err := readBody(w, r, tag)
		if err != nil {
			s.reply(w, endpoint, t0, cacheNone, nil, err)
			return
		}
		var alias *digest
		if !s.noAlias {
			d := digest(sha256.Sum256(buf))
			if body, ok := s.cache.Alias(d); ok {
				s.reply(w, endpoint, t0, cacheHit, body, nil)
				return
			}
			alias = &d
		}
		plan, key, err := readPlan(op, buf[len(tag):])
		if err != nil {
			s.reply(w, endpoint, t0, cacheNone, nil, err)
			return
		}
		if body, ok := s.cache.Get(key, alias); ok {
			s.reply(w, endpoint, t0, cacheHit, body, nil)
			return
		}
		ctx, cancel := s.reqCtx(r)
		defer cancel()
		val, shared, err := s.group.Do(ctx, key, func(ctx context.Context) (any, error) {
			return compute(ctx, key, plan)
		})
		outcome := cacheMiss
		if shared {
			outcome = cacheCoalesced
		}
		if err != nil {
			s.reply(w, endpoint, t0, outcome, nil, err)
			return
		}
		body := val.([]byte)
		s.cache.Put(key, body, alias)
		s.reply(w, endpoint, t0, outcome, body, nil)
	}
}

// candidates converts a search result's ranked candidates, capped at the
// plan's top, and its best candidate to wire form.
func candidates(res *mepipe.SearchResult, plan *v1.Plan) ([]v1.Candidate, *v1.Candidate) {
	evs := res.Candidates
	if plan.Top > 0 && len(evs) > plan.Top {
		evs = evs[:plan.Top]
	}
	out := make([]v1.Candidate, 0, len(evs))
	for _, ev := range evs {
		out = append(out, v1.CandidateFrom(ev, plan.Model, plan.Cluster, plan.Training))
	}
	best := res.Best()
	if best == nil {
		return out, nil
	}
	c := v1.CandidateFrom(best, plan.Model, plan.Cluster, plan.Training)
	return out, &c
}

// computeSearch runs one grid search and encodes its response body.
func (s *Server) computeSearch(ctx context.Context, key string, plan *v1.Plan) ([]byte, error) {
	res, err := s.backend.Search(ctx, plan.System, plan.Model, plan.Cluster, plan.Training, plan.Space, s.sink)
	if err != nil {
		return nil, err
	}
	resp := &v1.SearchResponse{
		API: v1.Version, Key: key, System: v1.SystemName(plan.System),
		Certified: true, Found: res.Found(),
		Evaluated: res.Evaluated, Pruned: res.Pruned,
	}
	resp.Candidates, resp.Best = candidates(res, plan)
	return encode("search response", resp)
}

// computeSweep runs one multi-system sweep and encodes its response body.
// Per-system "no candidate fits" failures are part of the document, not
// HTTP errors — a sweep that answers every system answered the request.
func (s *Server) computeSweep(ctx context.Context, key string, plan *v1.Plan) ([]byte, error) {
	res, err := s.backend.Sweep(ctx, plan.Systems, plan.Model, plan.Cluster, plan.Training, plan.Space)
	if err != nil {
		return nil, err
	}
	resp := &v1.SweepResponse{
		API: v1.Version, Key: key, Certified: true,
		Systems: make([]v1.SweepSystemResult, 0, len(plan.Systems)),
		Stats:   v1.SweepStatsFrom(res.Stats),
	}
	for i, sys := range plan.Systems {
		sr := res.Results[i]
		out := v1.SweepSystemResult{
			System:    v1.SystemName(sys),
			Found:     sr.Found(),
			Evaluated: sr.Evaluated,
			Pruned:    sr.Pruned,
		}
		if res.Errs[i] != nil {
			out.Error = res.Errs[i].Error()
		}
		out.Candidates, out.Best = candidates(sr, plan)
		resp.Systems = append(resp.Systems, out)
	}
	return encode("sweep response", resp)
}

// computeSimulate evaluates one pinned strategy and encodes its response
// body.
func (s *Server) computeSimulate(ctx context.Context, key string, plan *v1.Plan) ([]byte, error) {
	rec := obs.NewRecorder()
	ev, err := s.backend.Evaluate(ctx, plan.System, plan.Model, plan.Cluster, *plan.Parallel, plan.Training, obs.Multi(rec, s.sink))
	if err != nil {
		return nil, err
	}
	resp := &v1.SimulateResponse{
		API: v1.Version, Key: key, System: v1.SystemName(plan.System),
		Certified: !ev.OOM,
		Candidate: v1.CandidateFrom(ev, plan.Model, plan.Cluster, plan.Training),
	}
	if ev.Result != nil {
		resp.Breakdown = v1.BreakdownFrom(rec.Trace().Snapshot())
	}
	return encode("simulate response", resp)
}

// computeOptimize anneals one pinned strategy's preset schedule and
// encodes its response body, discovered schedule document included.
func (s *Server) computeOptimize(ctx context.Context, key string, plan *v1.Plan) ([]byte, error) {
	spec := plan.Opt
	res, err := s.backend.Optimize(ctx, plan.System, plan.Model, plan.Cluster, *plan.Parallel, plan.Training,
		mepipe.OptimizeOptions{Seed: spec.Seed, Iters: spec.Iters, Proposals: spec.Proposals}, s.sink)
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := res.Opt.Schedule.Save(&doc); err != nil {
		return nil, fmt.Errorf("serve: encoding discovered schedule: %w", err)
	}
	return encode("optimize response", &v1.OptimizeResponse{
		API: v1.Version, Key: key, System: v1.SystemName(plan.System),
		Certified:     res.Opt.Cert != nil,
		Parallel:      v1.ParallelFrom(res.Par),
		MicroBatches:  res.N,
		F:             res.F,
		Opt:           spec,
		StartedFrom:   "preset",
		BaseIterTimeS: res.Opt.BaseTime,
		BestIterTimeS: res.Opt.BestTime,
		Gain:          res.Opt.Gain(),
		Proposed:      res.Opt.Proposed,
		Infeasible:    res.Opt.Infeasible,
		Evaluated:     res.Opt.Evaluated,
		Accepted:      res.Opt.Accepted,
		Improved:      res.Opt.Improved,
		Schedule:      json.RawMessage(doc.Bytes()),
	})
}

// uncached endpoints -------------------------------------------------------

// handleCertify is a deterministic entry point, modulo the audited Clock seam
// (latency metrics): a given request body must always produce the same
// response.
//
//mepipe:deterministic
func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	t0 := s.now()
	status := http.StatusOK
	defer func() { s.metrics.observe("/v1/certify", status, cacheNone, sinceSeconds(s.now, t0)) }()

	raw, err := readBody(w, r, "")
	if err != nil {
		status = fail(w, err)
		return
	}
	req, err := v1.DecodeCertifyRequest(bytes.NewReader(raw))
	if err != nil {
		status = fail(w, err)
		return
	}
	sc, err := sched.Load(bytes.NewReader(req.Schedule))
	if err != nil {
		// A schedule that fails structural validation is a 422; anything
		// else (malformed JSON) is a malformed request.
		if !errors.Is(err, errs.ErrIncompatible) && !errors.Is(err, errs.ErrUncertified) {
			err = fmt.Errorf("%w: %v", v1.ErrBadRequest, err)
		}
		status = fail(w, err)
		return
	}
	var vopts verify.Options
	if req.SlotBudget != nil {
		vopts.Budget = verify.SlotBudget(req.SlotBudget)
	}
	cert, err := mepipe.CertifySchedule(sc, vopts)
	if err != nil {
		status = fail(w, err)
		return
	}
	body, err := encode("certificate", &v1.CertifyResponse{
		API: v1.Version, Schedule: cert.Schedule,
		Nodes: cert.Nodes, Edges: cert.Edges, CrossEdges: cert.CrossEdges,
		PeakFamilies: cert.PeakFamilies, PeakBytes: cert.PeakBytes,
	})
	if err != nil {
		status = fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleTrace is a deterministic entry point, modulo the audited Clock seam
// (latency metrics): a given request body must always produce the same
// response.
//
//mepipe:deterministic
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t0 := s.now()
	status := http.StatusOK
	defer func() { s.metrics.observe("/v1/trace", status, cacheNone, sinceSeconds(s.now, t0)) }()

	raw, err := readBody(w, r, "")
	if err != nil {
		status = fail(w, err)
		return
	}
	req, err := v1.DecodeTraceRequest(bytes.NewReader(raw))
	if err != nil {
		status = fail(w, err)
		return
	}
	var exporter obs.Exporter
	contentType := "application/json"
	switch req.Format {
	case "", "chrome":
		exporter = mepipe.ChromeTrace{}
	case "jsonl":
		exporter = mepipe.JSONLTrace{}
		contentType = "application/x-ndjson"
	default:
		status = fail(w, fmt.Errorf("%w: unknown trace format %q (want chrome or jsonl)", v1.ErrBadRequest, req.Format))
		return
	}
	plan, err := req.Compile()
	if err != nil {
		status = fail(w, err)
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	rec := obs.NewRecorder()
	ev, err := s.backend.Evaluate(ctx, plan.System, plan.Model, plan.Cluster, *plan.Parallel, plan.Training, obs.Multi(rec, s.sink))
	if err != nil {
		status = fail(w, err)
		return
	}
	if ev.OOM {
		status = fail(w, fmt.Errorf("serve: %s does not fit: %s: %w", ev.Par, ev.OOMWhy, errs.ErrOOM))
		return
	}
	var buf bytes.Buffer
	if err := exporter.Export(&buf, rec.Trace()); err != nil {
		status = fail(w, fmt.Errorf("serve: exporting trace: %w", err))
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
}

// handleStats is a deterministic entry point, modulo the audited Clock seam
// (latency metrics): a given request body must always produce the same
// response.
//
//mepipe:deterministic
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, err := encode("stats", s.metrics.snapshot(s.now(), s.cache))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealth is a deterministic entry point, modulo the audited Clock seam
// (latency metrics): a given request body must always produce the same
// response.
//
//mepipe:deterministic
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n")) //nolint:errcheck // client gone; nothing to do
}
