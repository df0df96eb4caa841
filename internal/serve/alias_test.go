package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mepipe"
	v1 "mepipe/api/v1"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/opt"
	"mepipe/internal/sched"
)

// failBatch is the global batch for which the stub backend's computations
// fail, so failed replies meet the alias path too.
const failBatch = 24

// stubBackend answers every cached endpoint as a pure function of the
// compiled plan, failing with ErrOOM at failBatch, and counts its calls.
func stubBackend(calls *atomic.Int32) Backend {
	fail := func(tr mepipe.Training) error {
		calls.Add(1)
		if tr.GlobalBatch == failBatch {
			return fmt.Errorf("stub: batch %d: %w", failBatch, errs.ErrOOM)
		}
		return nil
	}
	return Backend{
		Search: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace, sink obs.Sink) (*mepipe.SearchResult, error) {
			if err := fail(tr); err != nil {
				return nil, err
			}
			return &mepipe.SearchResult{Candidates: []*mepipe.Eval{stubEval()}, Evaluated: len(sp.PP)}, nil
		},
		Evaluate: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, sink obs.Sink) (*mepipe.Eval, error) {
			if err := fail(tr); err != nil {
				return nil, err
			}
			ev := stubEval()
			ev.Par = par
			return ev, nil
		},
		Optimize: func(ctx context.Context, sys mepipe.System, m mepipe.Model, cl mepipe.Cluster, par mepipe.Parallel, tr mepipe.Training, o mepipe.OptimizeOptions, sink obs.Sink) (*mepipe.Optimized, error) {
			if err := fail(tr); err != nil {
				return nil, err
			}
			s, err := sched.DAPPLE(2, 4, nil)
			if err != nil {
				return nil, err
			}
			return &mepipe.Optimized{Sys: sys, Par: par, N: 4, Opt: &opt.Result{
				Schedule: s, BaseTime: 2, BestTime: 1, Proposed: o.Iters,
			}}, nil
		},
		Sweep: func(ctx context.Context, systems []mepipe.System, m mepipe.Model, cl mepipe.Cluster, tr mepipe.Training, sp mepipe.SearchSpace) (*mepipe.SweepResult, error) {
			if err := fail(tr); err != nil {
				return nil, err
			}
			res := &mepipe.SweepResult{}
			for range systems {
				res.Results = append(res.Results, &mepipe.SearchResult{Candidates: []*mepipe.Eval{stubEval()}, Evaluated: 1})
				res.Errs = append(res.Errs, nil)
			}
			return res, nil
		},
	}
}

// aliasCount reports how many raw-body digests the server's cache holds.
func (s *Server) aliasCount() int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.aliases)
}

// cachedOps are the cached endpoints' operation tags.
var cachedOps = [...]string{"search", "sweep", "simulate", "optimize"}

// aliasSeeds are valid documents in several spellings, plus invalid ones,
// per cached operation.
func aliasSeeds() map[string][]string {
	model := `{"preset":"7b"}`
	explicit := `{"name":"llama-7b","hidden_size":4096,"num_layers":30,"num_heads":32,"num_kv_heads":32,"ffn_hidden":11008,"vocab_size":32000,"seq_len":4096}`
	cluster := `{"preset":"rtx4090","servers":1}`
	explicitCluster := `{"gpu":"rtx4090","gpus_per_server":8,"servers":1}`
	return map[string][]string{
		"search": {
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}}`,
			`{ "training" : { "global_batch" : 8 } ,"cluster":` + cluster + `,  "model":` + model + `, "system":"MEPipe"}`,
			`{"api":"v1","system":"mepipe","model":` + explicit + `,"cluster":` + explicitCluster + `,"training":{"global_batch":8,"micro_batch":1}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"space":{"pp":[8,2,4]}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"space":{"pp":[2,4,8,4]}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":24}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}} trailing`,
			`{"system":"nope","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}}`,
			`{`,
			``,
		},
		"sweep": {
			`{"systems":["dapple","zb"],"model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}}`,
			`{"systems":["zb","dapple"],"model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}}`,
			`{"systems":["dapple","dapple"],"model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}}`,
		},
		"simulate": {
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"parallel":{"pp":8}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"parallel":{"pp":8,"dp":1,"cp":1,"spp":4,"vp":1}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":24},"parallel":{"pp":8}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8}}`,
		},
		"optimize": {
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"parallel":{"pp":8}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"parallel":{"pp":8},"opt":{"seed":1,"iters":1500,"proposals":4}}`,
			`{"system":"mepipe","model":` + model + `,"cluster":` + cluster + `,"training":{"global_batch":8},"parallel":{"pp":8},"opt":{"iters":-1}}`,
		},
	}
}

// padTo pads doc with trailing spaces to n bytes.
func padTo(doc string, n int) []byte {
	return append([]byte(doc), bytes.Repeat([]byte(" "), n-len(doc))...)
}

// FuzzAliasEquivalence: a server that serves repeated bytes through their
// digest answers exactly like one that always decodes and compiles: same
// status, X-Mepipe-Cache header and body. Each input is sent twice, then
// its endpoint's evictor document, which pushes it out of the one-entry
// caches, then once more. The two servers see the same request sequence
// across the whole run.
func FuzzAliasEquivalence(f *testing.F) {
	seeds := aliasSeeds()
	for i, op := range cachedOps {
		for _, doc := range seeds[op] {
			f.Add(uint8(i), []byte(doc))
		}
	}
	f.Add(uint8(0), padTo(seeds["search"][0], MaxBodyBytes+1))
	var calls atomic.Int32
	on := New(Options{CacheSize: 1, Backend: stubBackend(&calls)})
	off := New(Options{CacheSize: 1, Backend: stubBackend(&calls)})
	off.noAlias = true
	f.Fuzz(func(t *testing.T, opIdx uint8, doc []byte) {
		op := cachedOps[int(opIdx)%len(cachedOps)]
		evictor := []byte(strings.Replace(seeds[op][0], `"global_batch":8`, `"global_batch":16`, 1))
		for i, body := range [][]byte{doc, doc, evictor, doc} {
			a := serveDoc(on.Handler(), http.MethodPost, "/v1/"+op, body)
			b := serveDoc(off.Handler(), http.MethodPost, "/v1/"+op, body)
			if a.Code != b.Code || a.Header().Get(cacheHeader) != b.Header().Get(cacheHeader) || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
				t.Fatalf("%s send %d: aliased %d %q %s; full path %d %q %s", op, i+1,
					a.Code, a.Header().Get(cacheHeader), a.Body, b.Code, b.Header().Get(cacheHeader), b.Body)
			}
		}
		if n := off.aliasCount(); n != 0 {
			t.Fatalf("the full-path server holds %d aliases", n)
		}
	})
}

// TestBodyCap: on every POST endpoint, a body one byte over MaxBodyBytes is
// refused with 413 too_large, and a body exactly at the cap is served,
// whether or not the request declares its length. Over-cap bodies are
// never aliased.
func TestBodyCap(t *testing.T) {
	cert, err := sched.DAPPLE(2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := cert.Save(&artifact); err != nil {
		t.Fatal(err)
	}
	seeds := aliasSeeds()
	docs := map[string]string{
		"/v1/search":   seeds["search"][0],
		"/v1/sweep":    seeds["sweep"][0],
		"/v1/simulate": seeds["simulate"][0],
		"/v1/optimize": seeds["optimize"][0],
		"/v1/certify":  `{"schedule":` + strings.TrimSpace(artifact.String()) + `}`,
		"/v1/trace":    strings.TrimSuffix(seeds["simulate"][0], "}") + `,"format":"jsonl"}`,
	}
	var calls atomic.Int32
	s := New(Options{Backend: stubBackend(&calls)})
	send := func(path string, body []byte, declared bool) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if !declared {
			r.ContentLength = -1
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w
	}
	for path, doc := range docs {
		for _, declared := range []bool{true, false} {
			w := send(path, padTo(doc, MaxBodyBytes+1), declared)
			var e v1.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s over the cap: %v: %s", path, err, w.Body)
			}
			if w.Code != http.StatusRequestEntityTooLarge || e.Code != "too_large" {
				t.Errorf("%s over the cap (length declared %v): %d %q, want 413 too_large", path, declared, w.Code, e.Code)
			}
			if w := send(path, padTo(doc, MaxBodyBytes), declared); w.Code != http.StatusOK {
				t.Errorf("%s at the cap (length declared %v): %d, want 200: %s", path, declared, w.Code, w.Body)
			}
		}
	}
	// Four at-cap documents computed and were aliased; no over-cap body was.
	if n := s.aliasCount(); n != 4 {
		t.Errorf("%d aliases after four served at-cap documents, want 4", n)
	}
}

// TestAliasEvictedWithKey: evicting an entry deletes its aliases, so the
// evicted document's bytes take the full path and report a miss, never a
// stale hit.
func TestAliasEvictedWithKey(t *testing.T) {
	var calls atomic.Int32
	s := New(Options{CacheSize: 1, Backend: stubBackend(&calls)})
	h := s.Handler()
	a, b := []byte(aliasSeeds()["simulate"][0]), simDoc(t, 16)
	for i, step := range []struct {
		doc     []byte
		outcome string
	}{{a, "miss"}, {a, "hit"}, {b, "miss"}, {a, "miss"}, {a, "hit"}} {
		w := serveDoc(h, http.MethodPost, "/v1/simulate", step.doc)
		if got := w.Header().Get(cacheHeader); w.Code != http.StatusOK || got != step.outcome {
			t.Errorf("step %d: %d %q, want 200 %q", i, w.Code, got, step.outcome)
		}
		if n := s.aliasCount(); n != 1 {
			t.Errorf("step %d: %d aliases, want the one cached entry's", i, n)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend ran %d times, want 3", got)
	}
}

// TestAliasRespelling: a respelling of a cached document hits through the
// full path, which attaches its digest, and then hits as its own alias;
// both bodies equal the miss's byte for byte.
func TestAliasRespelling(t *testing.T) {
	var calls atomic.Int32
	s := New(Options{Backend: stubBackend(&calls)})
	h := s.Handler()
	seeds := aliasSeeds()["search"]
	miss := serveDoc(h, http.MethodPost, "/v1/search", []byte(seeds[0]))
	if miss.Header().Get(cacheHeader) != "miss" || s.aliasCount() != 1 {
		t.Fatalf("first send: %d %q, %d aliases", miss.Code, miss.Header().Get(cacheHeader), s.aliasCount())
	}
	for _, respelled := range seeds[1:3] {
		for i := 0; i < 2; i++ {
			w := serveDoc(h, http.MethodPost, "/v1/search", []byte(respelled))
			if w.Header().Get(cacheHeader) != "hit" || !bytes.Equal(w.Body.Bytes(), miss.Body.Bytes()) {
				t.Errorf("respelling send %d: %d %q, body equal %v", i+1, w.Code, w.Header().Get(cacheHeader), bytes.Equal(w.Body.Bytes(), miss.Body.Bytes()))
			}
		}
	}
	if n := s.aliasCount(); n != 3 {
		t.Errorf("%d aliases, want 3: the miss's and one per respelling", n)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend ran %d times, want 1", got)
	}
}

// TestAliasOnlyAfterSuccess: an invalid document and a failed computation
// take the full path every time and leave no digest behind, and a server
// without a cache aliases nothing.
func TestAliasOnlyAfterSuccess(t *testing.T) {
	var calls atomic.Int32
	s := New(Options{Backend: stubBackend(&calls)})
	h := s.Handler()
	seeds := aliasSeeds()["simulate"]
	for i := 0; i < 2; i++ {
		if w := serveDoc(h, http.MethodPost, "/v1/simulate", []byte(seeds[3])); w.Code != http.StatusBadRequest {
			t.Errorf("invalid document, send %d: %d, want 400", i+1, w.Code)
		}
		if w := serveDoc(h, http.MethodPost, "/v1/simulate", []byte(seeds[2])); w.Code != http.StatusUnprocessableEntity {
			t.Errorf("failing computation, send %d: %d, want 422", i+1, w.Code)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("backend ran %d times for the failing document, want 2", got)
	}
	if n := s.aliasCount(); n != 0 {
		t.Errorf("%d aliases after only failures, want 0", n)
	}

	nocache := New(Options{CacheSize: -1, Backend: stubBackend(&calls)})
	for i := 0; i < 2; i++ {
		if w := serveDoc(nocache.Handler(), http.MethodPost, "/v1/simulate", []byte(seeds[0])); w.Header().Get(cacheHeader) != "miss" {
			t.Errorf("uncached server, send %d: %q, want miss", i+1, w.Header().Get(cacheHeader))
		}
	}
	if n := nocache.aliasCount(); n != 0 {
		t.Errorf("uncached server holds %d aliases", n)
	}
}

// TestAliasConcurrent mixes hits, misses, respellings and evictions on one
// server from several goroutines (run it under -race): every reply is 200
// and carries the body of its document's canonical key, and the alias
// table never outgrows its entries.
func TestAliasConcurrent(t *testing.T) {
	var calls atomic.Int32
	s := New(Options{CacheSize: 3, Backend: stubBackend(&calls)})
	h := s.Handler()
	var docs [][]byte
	for _, gbs := range []int{8, 16, 32, 48, 64} {
		docs = append(docs, simDoc(t, gbs),
			[]byte(fmt.Sprintf(` {"parallel":{"pp":8},"training":{"global_batch":%d},"cluster":{"preset":"rtx4090","servers":1},"model":{"preset":"7b"},"system":"mepipe"}`, gbs)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				doc := docs[(i*7+g*3)%len(docs)]
				w := serveDoc(h, http.MethodPost, "/v1/simulate", doc)
				var res v1.SimulateResponse
				if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &res) != nil {
					t.Errorf("%d: %s", w.Code, w.Body)
					return
				}
				req, err := v1.DecodePlanRequest(bytes.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				if key, err := req.Key("simulate"); err != nil || res.Key != key {
					t.Errorf("reply key %s, want %s (%v)", res.Key, key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, limit := s.aliasCount(), 3*aliasesPerEntry; n > limit {
		t.Errorf("%d aliases for 3 entries, want at most %d", n, limit)
	}
}
