package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	v1 "mepipe/api/v1"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// certifyErr posts doc, a saved schedule, to /v1/certify and returns the
// status and the decoded error body.
func certifyErr(t *testing.T, url string, doc []byte) (int, v1.ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(v1.CertifyRequest{Schedule: doc})
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, url+"/v1/certify", body)
	var e v1.ErrorResponse
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("%s: %v: %s", resp.Status, err, out)
	}
	return resp.StatusCode, e
}

// TestCertifyCounterexamples: a structurally broken DAPPLE(2,2) schedule
// — stage 1's first backward moved before its forward (a deadlock), or
// stage 1 cut short — answers 422 uncertified with the certifier's own
// counterexample, byte for byte.
func TestCertifyCounterexamples(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	for _, c := range []struct {
		name   string
		mutate func(s *sched.Schedule)
		want   string
	}{
		{"deadlock", func(s *sched.Schedule) { s.Stages[1][0], s.Stages[1][1] = s.Stages[1][1], s.Stages[1][0] },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false} deadlocks: dependency cycle of 2 ops: B[m0 s0 c0]@stage1 -order-> F[m0 s0 c0]@stage1 -dep-> B[m0 s0 c0]@stage1"},
		{"short stage", func(s *sched.Schedule) { s.Stages[1] = s.Stages[1][:len(s.Stages[1])-1] },
			"verify: DAPPLE{p=2 v=1 s=1 n=2 split=false} stage 1: incomplete op family: missing B[m1 s0 c0]"},
	} {
		s, err := sched.DAPPLE(2, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(s)
		if _, err := verify.Certify(s, verify.Options{}); err == nil || err.Error() != c.want {
			t.Fatalf("%s: Certify = %v, want %q", c.name, err, c.want)
		}
		var doc bytes.Buffer
		if err := s.Save(&doc); err != nil {
			t.Fatal(err)
		}
		status, e := certifyErr(t, ts.URL, doc.Bytes())
		if status != http.StatusUnprocessableEntity || e.Code != "uncertified" || e.Error != c.want {
			t.Errorf("%s: %d %s %q, want 422 uncertified %q", c.name, status, e.Code, e.Error, c.want)
		}
	}
}

// bigShape is a saved schedule of one-op stage lists claiming n
// micro-batches: a short body whose shape names n·4 ops.
func bigShape(n uint64) []byte {
	return []byte(fmt.Sprintf(`{"name":"big","p":2,"v":1,"s":1,"n":%d,"split_bw":false,"placement":"round-robin","stages":[[[0,0,0,0,0]],[[0,0,0,0,0]]]}`, n))
}

// TestCertifyShapeBound: a schedule whose shape names more ops than a
// body under MaxBodyBytes could list answers 400 before anything is
// sized by its shape, and one whose op universe overflows the op ids
// answers 400 instead of panicking.
func TestCertifyShapeBound(t *testing.T) {
	h := New(Options{}).Handler()
	body, err := json.Marshal(v1.CertifyRequest{Schedule: bigShape(5_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/certify", bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Errorf("n=5e6: %d %s, want 400", w.Code, w.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("n=5e6: the refusal allocated %d bytes, want under 1 MiB", alloc)
	}

	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, n := range []uint64{1 << 62, math.MaxInt64} {
		status, e := certifyErr(t, ts.URL, bigShape(n))
		if status != http.StatusBadRequest || e.Code != "bad_request" {
			t.Errorf("n=%d: %d %s %q, want 400 bad_request", n, status, e.Code, e.Error)
		}
	}
}
