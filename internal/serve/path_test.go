package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mepipe"
	v1 "mepipe/api/v1"
	"mepipe/internal/obs"
)

// serveDoc runs one request through the handler in process.
func serveDoc(h http.Handler, method, path string, doc []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(doc)))
	return w
}

// TestZeroSearchSize: a search size of zero used to divide by zero in the
// grid enumeration on the coalescer's goroutine, which net/http does not
// recover, so the process exited. Both documents are bad requests now, and
// the server keeps answering.
func TestZeroSearchSize(t *testing.T) {
	h := New(Options{}).Handler()
	for path, doc := range map[string]string{
		"/v1/search": `{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090","servers":1},"training":{"global_batch":8},"space":{"pp":[0]}}`,
		"/v1/sweep":  `{"systems":["dapple"],"model":{"preset":"7b"},"cluster":{"preset":"rtx4090","servers":1},"training":{"global_batch":8},"space":{"cp":[0]}}`,
	} {
		if w := serveDoc(h, http.MethodPost, path, []byte(doc)); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", path, w.Code, w.Body)
		}
	}
	if w := serveDoc(h, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Errorf("healthz after the bad documents: %d", w.Code)
	}
}

// TestComputationPanic: a computation that panics fails its own request
// with a 500 internal reply; the server and the coalescing group carry on.
func TestComputationPanic(t *testing.T) {
	s := New(Options{Backend: Backend{
		Evaluate: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			if tr.GlobalBatch == 8 {
				panic("backend bug")
			}
			return stubEval(), nil
		},
	}})
	h := s.Handler()
	w := serveDoc(h, http.MethodPost, "/v1/simulate", simDoc(t, 8))
	var e v1.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusInternalServerError || e.Code != "internal" {
		t.Errorf("panicking computation: status %d code %q, want 500 internal", w.Code, e.Code)
	}
	if w := serveDoc(h, http.MethodPost, "/v1/simulate", simDoc(t, 16)); w.Code != http.StatusOK {
		t.Errorf("next request: status %d: %s", w.Code, w.Body)
	}
	if s.Inflight() != 0 {
		t.Errorf("inflight = %d after the panic", s.Inflight())
	}
}

// TestFailureLatency: a reply that fails before any computation is timed
// from request entry like every other reply, not recorded as 0 s.
func TestFailureLatency(t *testing.T) {
	var tick time.Time
	s := New(Options{Clock: func() time.Time {
		tick = tick.Add(time.Second)
		return tick
	}})
	h := s.Handler()
	serveDoc(h, http.MethodPost, "/v1/search", []byte(`{`))
	serveDoc(h, http.MethodPost, "/v1/optimize", []byte(`{"system":"mepipe"}`))
	stats := s.metrics.snapshot(s.now(), s.cache)
	for _, ep := range []string{"/v1/search", "/v1/optimize"} {
		st := stats.Endpoints[ep]
		if st.Errors != 1 || st.LatencyMeanS != 1 {
			t.Errorf("%s: %d errors, mean latency %v s; want 1 error timed at 1 s", ep, st.Errors, st.LatencyMeanS)
		}
	}
}

// TestSearchHitAllocs pins the allocations of one /v1/search cache hit,
// request and recorder included: decode, one normalization, the key, the
// lookup and the reply. The document was normalized three times per
// request before the request path was unified (70 allocations, 11 of them
// per normalization).
func TestSearchHitAllocs(t *testing.T) {
	s := New(Options{Backend: Backend{
		Search: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace, sink obs.Sink) (*mepipe.SearchResult, error) {
			return &mepipe.SearchResult{Candidates: []*mepipe.Eval{stubEval()}, Evaluated: 1}, nil
		},
	}})
	doc, err := json.Marshal(v1.PlanRequest{
		System:   "mepipe",
		Model:    v1.ModelSpec{Preset: "13b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 4},
		Training: v1.TrainingSpec{GlobalBatch: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w := serveDoc(h, http.MethodPost, "/v1/search", doc); w.Code != http.StatusOK {
		t.Fatalf("filling the cache: %d: %s", w.Code, w.Body)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if w := serveDoc(h, http.MethodPost, "/v1/search", doc); w.Header().Get(cacheHeader) != "hit" {
			t.Fatalf("not a hit: %d %q", w.Code, w.Header().Get(cacheHeader))
		}
	})
	const limit = 50
	if allocs > limit {
		t.Errorf("a cache hit allocates %v times, want at most %d", allocs, limit)
	}
}
