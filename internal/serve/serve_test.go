package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mepipe"
	v1 "mepipe/api/v1"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// simDoc is a pinned-strategy request the stub-backend tests POST to
// /v1/simulate.
func simDoc(t *testing.T, gbs int) []byte {
	t.Helper()
	doc, err := json.Marshal(v1.PlanRequest{
		System:   "mepipe",
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
		Training: v1.TrainingSpec{GlobalBatch: gbs},
		Parallel: &v1.ParallelSpec{PP: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// stubEval is a minimal feasible evaluation for stub backends.
func stubEval() *mepipe.Eval {
	return &mepipe.Eval{Sys: mepipe.MEPipe, N: 8, IterTime: 1.2, Bubble: 0.1}
}

// post sends doc and returns the response with its body read.
func post(t *testing.T, url string, doc []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waiters reports how many callers are attached to the in-flight
// computation for key.
func (s *Server) waiters(key string) int {
	s.group.mu.Lock()
	defer s.group.mu.Unlock()
	if c, ok := s.group.calls[key]; ok {
		return c.waiters
	}
	return 0
}

// TestCacheHitMiss proves the content-addressed cache: the first request
// computes, the identical repeat is served verbatim from the cache, and a
// semantically different request computes again.
func TestCacheHitMiss(t *testing.T) {
	var calls atomic.Int32
	s := New(Options{Backend: Backend{
		Evaluate: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			calls.Add(1)
			return stubEval(), nil
		},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body1 := post(t, ts.URL+"/v1/simulate", simDoc(t, 8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: %s: %s", resp.Status, body1)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("first outcome = %q, want miss", got)
	}

	resp, body2 := post(t, ts.URL+"/v1/simulate", simDoc(t, 8))
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat outcome = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached body differs from computed body")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend ran %d times, want 1", got)
	}

	resp, _ = post(t, ts.URL+"/v1/simulate", simDoc(t, 16))
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("different request outcome = %q, want miss", got)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend ran %d times, want 2", got)
	}

	var sim v1.SimulateResponse
	if err := json.Unmarshal(body1, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.API != v1.Version || sim.Key == "" || !sim.Certified {
		t.Errorf("response = %+v", sim)
	}
}

// TestCoalescing proves the singleflight contract: two identical
// concurrent requests share exactly one backend computation, one reply is
// labelled miss and the other coalesced.
func TestCoalescing(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	s := New(Options{Backend: Backend{
		Evaluate: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			calls.Add(1)
			select {
			case <-release:
				return stubEval(), nil
			case <-ctx.Done():
				return nil, fmt.Errorf("stub: %w", errs.ErrCancelled)
			}
		},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := v1.DecodePlanRequest(bytes.NewReader(simDoc(t, 8)))
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.Key("simulate")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status  int
		outcome string
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := post(t, ts.URL+"/v1/simulate", simDoc(t, 8))
			results <- result{resp.StatusCode, resp.Header.Get(cacheHeader)}
		}()
	}
	// Release only once both callers are attached to the same in-flight
	// computation, so neither can degrade into a plain cache hit.
	waitFor(t, "both waiters attached", func() bool { return s.waiters(key) == 2 })
	close(release)
	wg.Wait()
	close(results)

	outcomes := map[string]int{}
	for r := range results {
		if r.status != http.StatusOK {
			t.Errorf("status = %d", r.status)
		}
		outcomes[r.outcome]++
	}
	if outcomes["miss"] != 1 || outcomes["coalesced"] != 1 {
		t.Errorf("outcomes = %v, want one miss and one coalesced", outcomes)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend ran %d times, want exactly 1", got)
	}
	if got := s.Inflight(); got != 0 {
		t.Errorf("inflight after completion = %d", got)
	}
}

// TestDisconnect proves the cancellation contract: a client that goes away
// mid-computation gets 499, the abandoned computation's context is
// cancelled, and the coalescing group does not wedge — the next identical
// request computes fresh.
func TestDisconnect(t *testing.T) {
	entered := make(chan struct{}, 8)
	var blocked atomic.Bool
	blocked.Store(true)
	s := New(Options{Backend: Backend{
		Evaluate: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			entered <- struct{}{}
			if !blocked.Load() {
				return stubEval(), nil
			}
			<-ctx.Done() // block until the server abandons the run
			return nil, fmt.Errorf("stub: %w", errs.ErrCancelled)
		},
	}})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(simDoc(t, 8))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	<-entered // computation started
	cancel()  // client disconnects
	<-done

	if rec.Code != StatusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	var e v1.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "cancelled" {
		t.Errorf("code = %q, want cancelled", e.Code)
	}
	waitFor(t, "abandoned run unwound", func() bool { return s.Inflight() == 0 })

	// The group must not be wedged and the failure must not be cached:
	// the same request now computes fresh and succeeds.
	blocked.Store(false)
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(simDoc(t, 8))))
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up status = %d: %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get(cacheHeader); got != "miss" {
		t.Errorf("follow-up outcome = %q, want miss (errors must not be cached)", got)
	}
}

// TestCoalescedSurvivorGetsResult proves one disconnecting client does not
// kill a computation another client still waits on.
func TestCoalescedSurvivorGetsResult(t *testing.T) {
	g := newCoalescer(context.Background())
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "result", nil
		case <-ctx.Done():
			return nil, fmt.Errorf("computation killed: %w", errs.ErrCancelled)
		}
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	type out struct {
		val    any
		shared bool
		err    error
	}
	leader := make(chan out, 1)
	go func() {
		v, sh, err := g.Do(leaderCtx, "k", fn)
		leader <- out{v, sh, err}
	}()
	waitFor(t, "leader in flight", func() bool { return g.Inflight() == 1 })

	survivor := make(chan out, 1)
	go func() {
		v, sh, err := g.Do(context.Background(), "k", fn)
		survivor <- out{v, sh, err}
	}()
	waitFor(t, "survivor joined", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		c, ok := g.calls["k"]
		return ok && c.waiters == 2
	})

	cancelLeader() // the run must keep going for the survivor
	lr := <-leader
	if !errors.Is(lr.err, errs.ErrCancelled) {
		t.Errorf("leader err = %v, want ErrCancelled", lr.err)
	}
	close(release)
	sr := <-survivor
	if sr.err != nil || sr.val != "result" || !sr.shared {
		t.Errorf("survivor = %+v, want shared result", sr)
	}
}

// TestErrorStatusMapping pins the sentinel-to-HTTP contract of the v1 API.
func TestErrorStatusMapping(t *testing.T) {
	var backendErr error
	s := New(Options{Backend: Backend{
		Evaluate: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			return nil, backendErr
		},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"oom", fmt.Errorf("x: %w", errs.ErrOOM), 422, "oom"},
		{"incompatible", fmt.Errorf("x: %w", errs.ErrIncompatible), 422, "incompatible"},
		{"uncertified", fmt.Errorf("x: %w", errs.ErrUncertified), 422, "uncertified"},
		{"cancelled", fmt.Errorf("x: %w", errs.ErrCancelled), 499, "cancelled"},
		{"internal", errors.New("backend exploded"), 500, "internal"},
	}
	for i, tc := range cases {
		backendErr = tc.err
		// Vary the batch so each case misses the cache.
		resp, body := post(t, ts.URL+"/v1/simulate", simDoc(t, 8+8*i))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		var e v1.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e.Code != tc.code || e.API != v1.Version {
			t.Errorf("%s: body = %+v, want code %q", tc.name, e, tc.code)
		}
	}

	// Malformed documents: 400 before any backend work.
	for name, doc := range map[string]string{
		"bad json":      `{`,
		"unknown field": `{"system":"mepipe","modle":{}}`,
		"no parallel":   `{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":8}}`,
	} {
		resp, _ := post(t, ts.URL+"/v1/simulate", []byte(doc))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search status = %d, want 405", resp.StatusCode)
	}
}

// TestSearchEndToEnd drives the real facade: a small grid search must come
// back certified with a ranked best candidate, repeat from the cache, and
// show up in the stats.
func TestSearchEndToEnd(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc, err := json.Marshal(v1.PlanRequest{
		System:   "mepipe",
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
		Training: v1.TrainingSpec{GlobalBatch: 8},
		Space:    &v1.SpaceSpec{PP: []int{8}, CP: []int{1}, SPP: []int{4}, VP: []int{1}, MinDP: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/search", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var res v1.SearchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Certified || !res.Found || res.Best == nil || len(res.Candidates) == 0 {
		t.Fatalf("search found nothing: %+v", res)
	}
	if res.Best.OOM || res.Best.IterTimeS <= 0 || res.Best.MFU <= 0 {
		t.Errorf("best candidate = %+v", res.Best)
	}

	resp, body2 := post(t, ts.URL+"/v1/search", doc)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat outcome = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached search body differs")
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats v1.StatsResponse
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ep := stats.Endpoints["/v1/search"]
	if ep.Requests != 2 || ep.Hits != 1 || ep.Misses != 1 {
		t.Errorf("stats = %+v, want 2 requests, 1 hit, 1 miss", ep)
	}
	if stats.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", stats.Cache.Entries)
	}
}

// TestCertifyEndpoint round-trips a saved schedule artifact through
// /v1/certify, including a budget violation and a malformed document.
func TestCertifyEndpoint(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dapple, err := sched.DAPPLE(2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := dapple.Save(&artifact); err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(v1.CertifyRequest{Schedule: artifact.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/certify", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var cert v1.CertifyResponse
	if err := json.Unmarshal(body, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Nodes == 0 || len(cert.PeakFamilies) != 2 {
		t.Errorf("certificate = %+v", cert)
	}

	// A slot budget below the swept peak must be rejected as uncertified.
	doc, err = json.Marshal(v1.CertifyRequest{Schedule: artifact.Bytes(), SlotBudget: []int{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/certify", doc)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget status = %s: %s", resp.Status, body)
	}
	var e v1.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "uncertified" {
		t.Errorf("code = %q, want uncertified", e.Code)
	}

	// A well-formed document whose schedule fails structural validation is
	// a 422; a schedule that is not even a JSON object is a bad request.
	// Neither may surface as a 500.
	resp, body = post(t, ts.URL+"/v1/certify", []byte(`{"schedule": {"not": "a schedule"}}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid schedule status = %d, want 422: %s", resp.StatusCode, body)
	}
	resp, _ = post(t, ts.URL+"/v1/certify", []byte(`{"schedule": "not an object"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-object schedule status = %d, want 400", resp.StatusCode)
	}
}

// TestTraceEndpoint checks both export formats and the format validation.
func TestTraceEndpoint(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mk := func(format string) []byte {
		doc, err := json.Marshal(v1.TraceRequest{
			PlanRequest: v1.PlanRequest{
				System:   "mepipe",
				Model:    v1.ModelSpec{Preset: "7b"},
				Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
				Training: v1.TrainingSpec{GlobalBatch: 8},
				Parallel: &v1.ParallelSpec{PP: 8},
			},
			Format: format,
		})
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}

	resp, body := post(t, ts.URL+"/v1/trace", mk("chrome"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}

	resp, body = post(t, ts.URL+"/v1/trace", mk("jsonl"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("jsonl content type = %q", ct)
	}
	if lines := strings.Count(strings.TrimSpace(string(body)), "\n"); lines == 0 {
		t.Error("jsonl trace has no events")
	}

	resp, _ = post(t, ts.URL+"/v1/trace", mk("dot"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", resp.StatusCode)
	}
}

// TestLRU pins the eviction policy.
func TestLRU(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", []byte("A"), nil)
	c.Put("b", []byte("B"), nil)
	if _, ok := c.Get("a", nil); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"), nil) // evicts b
	if _, ok := c.Get("b", nil); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a", nil); !ok {
		t.Error("a evicted despite refresh")
	}
	entries, capacity, evictions := c.Stats()
	if entries != 2 || capacity != 2 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want 2/2/1", entries, capacity, evictions)
	}

	off := newLRUCache(0)
	off.Put("a", []byte("A"), nil)
	if _, ok := off.Get("a", nil); ok {
		t.Error("disabled cache stored an entry")
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	s := New(Options{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// optDoc is the optimize request the end-to-end test POSTs: a small real
// configuration plus a short, fixed-seed search.
func optDoc(t *testing.T, iters int) []byte {
	t.Helper()
	doc, err := json.Marshal(v1.OptimizeRequest{
		PlanRequest: v1.PlanRequest{
			System:   "mepipe",
			Model:    v1.ModelSpec{Preset: "7b"},
			Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
			Training: v1.TrainingSpec{GlobalBatch: 8},
			Parallel: &v1.ParallelSpec{PP: 8},
		},
		Opt: &v1.OptSpec{Seed: 1, Iters: iters, Proposals: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestOptimizeEndToEnd drives POST /v1/optimize through the real facade
// backend: the discovered schedule must decode, never regress on the
// preset, and the identical repeat must be a cache hit with byte-equal
// body (the optimizer's determinism is what makes the endpoint cacheable
// at all).
func TestOptimizeEndToEnd(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/v1/optimize", optDoc(t, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("first outcome = %q, want miss", got)
	}
	var or v1.OptimizeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.API != v1.Version || or.Key == "" || or.System != "mepipe" || !or.Certified {
		t.Errorf("response = %+v", or)
	}
	if or.StartedFrom != "preset" {
		t.Errorf("started_from = %q", or.StartedFrom)
	}
	if or.BestIterTimeS > or.BaseIterTimeS {
		t.Errorf("discovered %.6f is slower than the preset %.6f", or.BestIterTimeS, or.BaseIterTimeS)
	}
	if or.Proposed != 3*2 || or.Evaluated+or.Infeasible != or.Proposed {
		t.Errorf("counters: proposed %d evaluated %d infeasible %d", or.Proposed, or.Evaluated, or.Infeasible)
	}
	if _, err := sched.Load(bytes.NewReader(or.Schedule)); err != nil {
		t.Errorf("discovered schedule does not load: %v", err)
	}

	resp, body2 := post(t, ts.URL+"/v1/optimize", optDoc(t, 3))
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat outcome = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached optimize body differs from computed body")
	}

	// A different round count is a different computation.
	resp, _ = post(t, ts.URL+"/v1/optimize", optDoc(t, 4))
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("different iters outcome = %q, want miss", got)
	}

	// Optimize without a pinned strategy is a 400.
	var noPar v1.OptimizeRequest
	if err := json.Unmarshal(optDoc(t, 3), &noPar); err != nil {
		t.Fatal(err)
	}
	noPar.Parallel = nil
	doc, err := json.Marshal(noPar)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/optimize", doc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no parallel: %s: %s", resp.Status, body)
	}
}

// TestSweepEndToEnd runs /v1/sweep against the real engine on a small
// grid and cross-checks each system's slice against its own /v1/search:
// the sweep is advertised as byte-identical to per-system searches, and
// the wire layer must preserve that.
func TestSweepEndToEnd(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	space := &v1.SpaceSpec{PP: []int{8}, CP: []int{1}, SPP: []int{4}, VP: []int{1}, MinDP: 1}
	doc, err := json.Marshal(v1.SweepRequest{
		Systems:  []string{"mepipe", "terapipe"},
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
		Training: v1.TrainingSpec{GlobalBatch: 8},
		Space:    space,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/sweep", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var res v1.SweepResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Certified || len(res.Systems) != 2 || res.Key == "" {
		t.Fatalf("sweep response = %+v", res)
	}
	if res.Stats.GridPoints == 0 || res.Stats.Evaluated == 0 {
		t.Errorf("implausible stats: %+v", res.Stats)
	}
	for i, name := range []string{"mepipe", "terapipe"} {
		sdoc, err := json.Marshal(v1.PlanRequest{
			System:   name,
			Model:    v1.ModelSpec{Preset: "7b"},
			Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
			Training: v1.TrainingSpec{GlobalBatch: 8},
			Space:    space,
		})
		if err != nil {
			t.Fatal(err)
		}
		sresp, sbody := post(t, ts.URL+"/v1/search", sdoc)
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("search %s: %s: %s", name, sresp.Status, sbody)
		}
		var sr v1.SearchResponse
		if err := json.Unmarshal(sbody, &sr); err != nil {
			t.Fatal(err)
		}
		sys := res.Systems[i]
		if sys.System != name || sys.Found != sr.Found ||
			sys.Evaluated != sr.Evaluated || sys.Pruned != sr.Pruned {
			t.Errorf("%s: sweep slice %+v does not match search %+v", name, sys, sr)
		}
		if len(sys.Candidates) != len(sr.Candidates) {
			t.Fatalf("%s: sweep has %d candidates, search %d", name, len(sys.Candidates), len(sr.Candidates))
		}
		for j := range sr.Candidates {
			if sys.Candidates[j] != sr.Candidates[j] {
				t.Errorf("%s: candidate %d differs:\nsweep:  %+v\nsearch: %+v", name, j, sys.Candidates[j], sr.Candidates[j])
			}
		}
	}

	resp, body2 := post(t, ts.URL+"/v1/sweep", doc)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat outcome = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached sweep body differs from computed body")
	}

	// An unknown system name is a 400.
	bad, err := json.Marshal(v1.SweepRequest{
		Systems:  []string{"nope"},
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
		Training: v1.TrainingSpec{GlobalBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/sweep", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown system: %s: %s", resp.Status, body)
	}
}

// TestSweepBackendStub proves /v1/sweep routes through Backend.Sweep and
// counts its metrics under its own endpoint.
func TestSweepBackendStub(t *testing.T) {
	var calls atomic.Int32
	s := New(Options{Backend: Backend{
		Sweep: func(ctx context.Context, systems []mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace) (*mepipe.SweepResult, error) {
			calls.Add(1)
			res := &mepipe.SweepResult{}
			for range systems {
				res.Results = append(res.Results, &mepipe.SearchResult{Candidates: []*mepipe.Eval{stubEval()}, Evaluated: 1})
				res.Errs = append(res.Errs, nil)
			}
			return res, nil
		},
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc, err := json.Marshal(v1.SweepRequest{
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
		Training: v1.TrainingSpec{GlobalBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/sweep", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var res v1.SweepResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	// An empty system list expands to every system.
	if len(res.Systems) != len(mepipe.Systems()) {
		t.Errorf("sweep covered %d systems, want %d", len(res.Systems), len(mepipe.Systems()))
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend ran %d times, want 1", got)
	}
}
