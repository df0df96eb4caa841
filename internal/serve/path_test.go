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
// from request entry like every other reply, not recorded as 0 s, in the
// mean and in the quantiles alike.
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
		if st.Errors != 1 || st.LatencyMeanS != 1 || st.LatencyP50S != 1 || st.LatencyP90S != 1 || st.LatencyP99S != 1 {
			t.Errorf("%s: %d errors, latency mean %v s, p50/p90/p99 %v/%v/%v s; want 1 error timed at 1 s",
				ep, st.Errors, st.LatencyMeanS, st.LatencyP50S, st.LatencyP90S, st.LatencyP99S)
		}
	}
}

// TestSearchHitAllocs pins the allocations of one /v1/search cache hit,
// request and recorder included. The repeated bytes are served through
// their raw-body digest: the capped body read, one SHA-256, the alias
// lookup and the reply, with no decode, normalization or key. Of the 22
// allocations measured, the test's request and recorder take 14, writing
// the reply into the recorder 6, and the capped body read the last 2. A hit
// allocated 46 times when it still decoded, normalized and keyed its
// document (and 70 when it normalized three times).
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
	const limit = 28
	if allocs > limit {
		t.Errorf("a cache hit allocates %v times, want at most %d", allocs, limit)
	}
}
