package v1_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	v1 "mepipe/api/v1"
)

// The decoder fuzzers check the request path's contract on arbitrary
// bytes: decoding never panics; the serving compile step (ReadPlan, or
// TraceRequest.Compile) accepts exactly the documents Normalize accepts,
// less those its op rejects for lacking a pinned strategy; normalizing a
// canonical document is the identity, and it compiles to the same plan as
// the document it came from; and the cache key survives re-encoding the
// document with another field order and whitespace.

// seedDocs adds the key golden's documents and a few invalid ones.
func seedDocs(f *testing.F) {
	for _, tc := range keyGolden {
		for _, doc := range tc.docs {
			f.Add([]byte(doc))
		}
	}
	for _, doc := range []string{
		`{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":8},"space":{"pp":[0]}}`,
		`{"systems":["dapple"],"model":{"preset":"7b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":8},"space":{"cp":[0],"min_dp":-1}}`,
		`{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090","servers":-1},"training":{"global_batch":8}}`,
		`{"api":"v2","schedule":{}}`,
		`{"schedule":{"p":2},"slot_budget":[1,2]}`,
		`{"format":"jsonl","system":"zb","model":{"preset":"7b"},"cluster":{"gpu":"a100","servers":1},"training":{"global_batch":8},"parallel":{"pp":2}}`,
		`{"opt":{"iters":-1},"system":"mepipe"}`,
		`[]`, `{`, `null`,
	} {
		f.Add([]byte(doc))
	}
}

// reencode writes v back out with its object keys sorted and indented: the
// same document under another field order and whitespace. Numbers keep
// their exact text.
func reencode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(tree, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkServed compares ReadPlan on doc with the document's own methods:
// ReadPlan accepts exactly when want is nil, and then returns the plan and
// key those methods give.
func checkServed(t *testing.T, op string, doc []byte, want error, plan *v1.Plan, key string) {
	t.Helper()
	got, gotKey, err := v1.ReadPlan(op, bytes.NewReader(doc))
	if (err == nil) != (want == nil) {
		t.Fatalf("%s: ReadPlan err = %v, want %v", op, err, want)
	}
	if err != nil {
		if !isBadRequest(err) {
			t.Fatalf("%s: ReadPlan err = %v, not ErrBadRequest", op, err)
		}
		return
	}
	if gotKey != key || !reflect.DeepEqual(got, plan) {
		t.Fatalf("%s: ReadPlan = %+v %s, want %+v %s", op, got, gotKey, plan, key)
	}
}

// checkPlan is the contract for one decoded PlanRequest: op is the cached
// operation it is served under.
func checkPlan(t *testing.T, doc []byte, req *v1.PlanRequest, op string) {
	norm, nerr := req.Normalize()
	plan, cerr := req.Compile()
	if (nerr == nil) != (cerr == nil) {
		t.Fatalf("Normalize err %v, Compile err %v", nerr, cerr)
	}
	if nerr != nil {
		if !isBadRequest(nerr) {
			t.Fatalf("Normalize err = %v, not ErrBadRequest", nerr)
		}
		checkServed(t, op, doc, nerr, nil, "")
		return
	}
	again, err := norm.Normalize()
	if err != nil || !reflect.DeepEqual(again, norm) {
		t.Fatalf("Normalize is not idempotent: %+v (%v), want %+v", again, err, norm)
	}
	if p, err := norm.Compile(); err != nil || !reflect.DeepEqual(p, plan) {
		t.Fatalf("canonical document compiles to %+v (%v), want %+v", p, err, plan)
	}
	key, err := req.Key(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []any{req, norm} {
		back, err := v1.DecodePlanRequest(bytes.NewReader(reencode(t, alt)))
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		if k, err := back.Key(op); err != nil || k != key {
			t.Fatalf("re-encoded key %s (%v), want %s", k, err, key)
		}
	}
	var want error
	if req.Parallel == nil && op == "simulate" {
		want = v1.ErrBadRequest
	}
	checkServed(t, op, doc, want, plan, key)
}

func FuzzDecodePlanRequest(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := v1.DecodePlanRequest(bytes.NewReader(doc))
		if err != nil {
			if !isBadRequest(err) {
				t.Fatalf("decode err = %v, not ErrBadRequest", err)
			}
			return
		}
		checkPlan(t, doc, req, "search")
		checkPlan(t, doc, req, "simulate")
	})
}

func FuzzDecodeTraceRequest(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := v1.DecodeTraceRequest(bytes.NewReader(doc))
		if err != nil {
			if !isBadRequest(err) {
				t.Fatalf("decode err = %v, not ErrBadRequest", err)
			}
			return
		}
		plan, err := req.Compile()
		norm, nerr := req.Normalize()
		if nerr == nil && req.Parallel == nil {
			nerr = v1.ErrBadRequest
		}
		if (err == nil) != (nerr == nil) {
			t.Fatalf("trace Compile err %v, Normalize err %v", err, nerr)
		}
		if err != nil {
			return
		}
		if p, err := norm.Compile(); err != nil || !reflect.DeepEqual(p, plan) {
			t.Fatalf("canonical document compiles to %+v (%v), want %+v", p, err, plan)
		}
		key, err := req.Key("trace")
		if err != nil {
			t.Fatal(err)
		}
		back, err := v1.DecodeTraceRequest(bytes.NewReader(reencode(t, req)))
		if err != nil || back.Format != req.Format {
			t.Fatalf("re-encoded document decodes to %+v (%v), want %+v", back, err, req)
		}
		if k, err := back.Key("trace"); err != nil || k != key {
			t.Fatalf("re-encoded key %s (%v), want %s", k, err, key)
		}
	})
}

func FuzzDecodeSweepRequest(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := v1.DecodeSweepRequest(bytes.NewReader(doc))
		if err != nil {
			if !isBadRequest(err) {
				t.Fatalf("decode err = %v, not ErrBadRequest", err)
			}
			return
		}
		norm, nerr := req.Normalize()
		plan, cerr := req.Compile()
		if (nerr == nil) != (cerr == nil) {
			t.Fatalf("Normalize err %v, Compile err %v", nerr, cerr)
		}
		if nerr != nil {
			checkServed(t, "sweep", doc, nerr, nil, "")
			return
		}
		again, err := norm.Normalize()
		if err != nil || !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent: %+v (%v), want %+v", again, err, norm)
		}
		if p, err := norm.Compile(); err != nil || !reflect.DeepEqual(p, plan) {
			t.Fatalf("canonical document compiles to %+v (%v), want %+v", p, err, plan)
		}
		key, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		for _, alt := range []any{req, norm} {
			back, err := v1.DecodeSweepRequest(bytes.NewReader(reencode(t, alt)))
			if err != nil {
				t.Fatalf("re-encoded document rejected: %v", err)
			}
			if k, err := back.Key(); err != nil || k != key {
				t.Fatalf("re-encoded key %s (%v), want %s", k, err, key)
			}
		}
		checkServed(t, "sweep", doc, nil, plan, key)
	})
}

func FuzzDecodeOptimizeRequest(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := v1.DecodeOptimizeRequest(bytes.NewReader(doc))
		if err != nil {
			if !isBadRequest(err) {
				t.Fatalf("decode err = %v, not ErrBadRequest", err)
			}
			return
		}
		norm, nerr := req.Normalize()
		if nerr != nil {
			checkServed(t, "optimize", doc, nerr, nil, "")
			return
		}
		again, err := norm.Normalize()
		if err != nil || !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent: %+v (%v), want %+v", again, err, norm)
		}
		key, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		for _, alt := range []any{req, norm} {
			back, err := v1.DecodeOptimizeRequest(bytes.NewReader(reencode(t, alt)))
			if err != nil {
				t.Fatalf("re-encoded document rejected: %v", err)
			}
			if k, err := back.Key(); err != nil || k != key {
				t.Fatalf("re-encoded key %s (%v), want %s", k, err, key)
			}
		}
		// The served plan is the canonical plan's, with the canonical spec.
		plan, err := norm.PlanRequest.Compile()
		if err != nil {
			t.Fatal(err)
		}
		plan.Opt = *norm.Opt
		checkServed(t, "optimize", doc, nil, plan, key)
	})
}

// FuzzDecodeCertifyRequest: a certify document has no compile step or key;
// it must decode without panicking, and a decoded document must decode
// alike after re-encoding.
func FuzzDecodeCertifyRequest(f *testing.F) {
	seedDocs(f)
	f.Fuzz(func(t *testing.T, doc []byte) {
		req, err := v1.DecodeCertifyRequest(bytes.NewReader(doc))
		if err != nil {
			if !isBadRequest(err) {
				t.Fatalf("decode err = %v, not ErrBadRequest", err)
			}
			return
		}
		back, err := v1.DecodeCertifyRequest(bytes.NewReader(reencode(t, req)))
		if err != nil {
			t.Fatalf("re-encoded document rejected: %v", err)
		}
		var a, b bytes.Buffer
		if json.Compact(&a, req.Schedule) != nil || json.Compact(&b, back.Schedule) != nil ||
			a.String() != b.String() || back.API != req.API || !slices.Equal(back.SlotBudget, req.SlotBudget) {
			t.Fatalf("re-encoded document decodes to %+v, want %+v", back, req)
		}
	})
}

// TestSpaceEntriesPositive: a search size below 1 and a negative min_dp are
// bad requests on every document that carries a space.
func TestSpaceEntriesPositive(t *testing.T) {
	for _, space := range []string{`{"pp":[0]}`, `{"cp":[2,0]}`, `{"spp":[0,4]}`, `{"vp":[-1]}`, `{"min_dp":-1}`} {
		for op, doc := range map[string]string{
			"search":   `{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":8},"space":` + space + `}`,
			"simulate": `{"system":"mepipe","model":{"preset":"7b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":8},"parallel":{"pp":8},"space":` + space + `}`,
			"sweep":    `{"systems":["dapple"],"model":{"preset":"7b"},"cluster":{"preset":"rtx4090"},"training":{"global_batch":8},"space":` + space + `}`,
		} {
			if _, _, err := v1.ReadPlan(op, strings.NewReader(doc)); !isBadRequest(err) {
				t.Errorf("%s with space %s: err = %v, want ErrBadRequest", op, space, err)
			}
		}
	}
}

// TestPresetClusterShape: a preset cluster's shape overrides must be
// positive, as an explicit cluster's are, so Normalize and Key reject what
// Compile rejects.
func TestPresetClusterShape(t *testing.T) {
	for _, cl := range []v1.ClusterSpec{
		{Preset: "rtx4090", Servers: -1},
		{Preset: "a100", GPUsPerServer: -8},
		{GPU: "rtx4090", Servers: -2},
	} {
		req := searchReq()
		req.Cluster = cl
		if _, err := req.Normalize(); !isBadRequest(err) {
			t.Errorf("%+v: Normalize err = %v, want ErrBadRequest", cl, err)
		}
		if _, err := req.Key("search"); !isBadRequest(err) {
			t.Errorf("%+v: Key err = %v, want ErrBadRequest", cl, err)
		}
	}
}
