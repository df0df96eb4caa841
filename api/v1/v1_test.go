package v1_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	v1 "mepipe/api/v1"
	"mepipe/internal/config"
	"mepipe/internal/strategy"
)

var update = flag.Bool("update", false, "rewrite golden files")

// searchReq is the preset-spelled request used across the wire tests.
func searchReq() *v1.PlanRequest {
	return &v1.PlanRequest{
		System:   "MEPipe", // case-insensitive on the wire
		Model:    v1.ModelSpec{Preset: "13b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090"},
		Training: v1.TrainingSpec{GlobalBatch: 64},
		Space:    &v1.SpaceSpec{PP: []int{16, 8, 8}, SPP: []int{4, 2}},
		Top:      3,
	}
}

// TestNormalizeGolden pins the canonical (normalized) form of a request —
// the exact bytes the cache key hashes. Any drift in field names, default
// filling, or preset expansion shows up as a diff. Regenerate with:
// go test ./api/v1 -run Golden -update
func TestNormalizeGolden(t *testing.T) {
	norm, err := searchReq().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(norm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "search_canonical.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical document drifted from golden %s (-update to accept):\n%s", golden, got)
	}

	// The canonical form must round-trip through the wire losslessly.
	back, err := v1.DecodePlanRequest(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, norm) {
		t.Errorf("round-trip changed the document:\ngot  %+v\nwant %+v", back, norm)
	}
}

// TestKeyEquivalence proves the content address ignores spelling: preset
// vs explicit model, shuffled and duplicated space lists, upper vs lower
// case system names.
func TestKeyEquivalence(t *testing.T) {
	a := searchReq()
	keyA, err := a.Key("search")
	if err != nil {
		t.Fatal(err)
	}
	if len(keyA) != 64 || strings.ToLower(keyA) != keyA {
		t.Fatalf("key %q is not lower-case hex sha256", keyA)
	}

	m := config.Llama13B()
	b := &v1.PlanRequest{
		System: "mepipe",
		Model: v1.ModelSpec{
			Name: m.Name, HiddenSize: m.HiddenSize, NumLayers: m.NumLayers,
			NumHeads: m.NumHeads, NumKVHeads: m.NumKVHeads, FFNHidden: m.FFNHidden,
			VocabSize: m.VocabSize, SeqLen: m.SeqLen,
		},
		Cluster:  v1.ClusterSpec{GPU: "rtx4090", GPUsPerServer: 8, Servers: 8},
		Training: v1.TrainingSpec{GlobalBatch: 64, MicroBatch: 1},
		Space:    &v1.SpaceSpec{PP: []int{8, 16}, SPP: []int{2, 4, 4}},
		Top:      3,
	}
	keyB, err := b.Key("search")
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Errorf("equivalent spellings hash differently:\n%s\n%s", keyA, keyB)
	}

	// The operation tag and any semantic change must change the key.
	keySim, err := a.Key("simulate")
	if err != nil {
		t.Fatal(err)
	}
	if keySim == keyA {
		t.Error("search and simulate share a key")
	}
	c := searchReq()
	c.Training.GlobalBatch = 128
	keyC, err := c.Key("search")
	if err != nil {
		t.Fatal(err)
	}
	if keyC == keyA {
		t.Error("different global batch shares a key")
	}
}

// TestNormalizeDefaults pins the CLI-compatible default filling for pinned
// strategies.
func TestNormalizeDefaults(t *testing.T) {
	req := &v1.PlanRequest{
		System:   "mepipe",
		Model:    v1.ModelSpec{Preset: "7b"},
		Cluster:  v1.ClusterSpec{Preset: "rtx4090"},
		Training: v1.TrainingSpec{GlobalBatch: 64},
		Parallel: &v1.ParallelSpec{PP: 8},
	}
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	p := norm.Parallel
	if p.SPP != 4 || p.VP != 1 || p.CP != 1 || p.DP != 8 {
		t.Errorf("mepipe defaults = spp=%d vp=%d cp=%d dp=%d, want 4/1/1/8", p.SPP, p.VP, p.CP, p.DP)
	}
	if norm.Training.MicroBatch != 1 {
		t.Errorf("micro batch defaulted to %d, want 1", norm.Training.MicroBatch)
	}
	if norm.Space != nil {
		t.Error("simulate document grew a search space")
	}

	req.System = "vpp"
	req.Parallel = &v1.ParallelSpec{PP: 8}
	norm, err = req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Parallel.VP != 2 || norm.Parallel.SPP != 1 {
		t.Errorf("vpp defaults = vp=%d spp=%d, want 2/1", norm.Parallel.VP, norm.Parallel.SPP)
	}
}

// TestDecodeStrict pins the malformed-document contract: unknown fields,
// trailing data, bad versions and missing requireds all wrap ErrBadRequest.
func TestDecodeStrict(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"system":"mepipe","modle":{}}`,
		"trailing data": `{"system":"mepipe"} {"again":true}`,
		"not json":      `hello`,
	}
	for name, doc := range cases {
		if _, err := v1.DecodePlanRequest(strings.NewReader(doc)); !isBadRequest(err) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}

	bad := searchReq()
	bad.API = "v2"
	if _, err := bad.Normalize(); !isBadRequest(err) {
		t.Errorf("api v2: err = %v, want ErrBadRequest", err)
	}
	bad = searchReq()
	bad.System = "magic"
	if _, err := bad.Normalize(); !isBadRequest(err) {
		t.Errorf("unknown system: err = %v, want ErrBadRequest", err)
	}
	bad = searchReq()
	bad.Training.GlobalBatch = 0
	if _, err := bad.Normalize(); !isBadRequest(err) {
		t.Errorf("zero batch: err = %v, want ErrBadRequest", err)
	}
	bad = searchReq()
	bad.Model.HiddenSize = 4096 // preset + explicit dimensions conflict
	if _, err := bad.Normalize(); !isBadRequest(err) {
		t.Errorf("preset+explicit model: err = %v, want ErrBadRequest", err)
	}

	if _, err := v1.DecodeCertifyRequest(strings.NewReader(`{}`)); !isBadRequest(err) {
		t.Errorf("certify without schedule: err = %v, want ErrBadRequest", err)
	}
}

// TestSystemNames round-trips every system through the wire spelling.
func TestSystemNames(t *testing.T) {
	for _, sys := range strategy.Systems() {
		name := v1.SystemName(sys)
		back, err := v1.SystemByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back != sys {
			t.Errorf("%s round-tripped to %s", sys, back)
		}
	}
}

// TestCompile checks the compiled plan reaches the domain types intact.
func TestCompile(t *testing.T) {
	plan, err := searchReq().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if plan.System != strategy.MEPipe {
		t.Errorf("system = %v", plan.System)
	}
	if plan.Model.Name != config.Llama13B().Name {
		t.Errorf("model = %q", plan.Model.Name)
	}
	if got := plan.Cluster.GPUs(); got != 64 {
		t.Errorf("cluster GPUs = %d, want 64", got)
	}
	if !reflect.DeepEqual(plan.Space.PP, []int{8, 16}) || !reflect.DeepEqual(plan.Space.SPP, []int{2, 4}) {
		t.Errorf("space lists not canonicalized: %+v", plan.Space)
	}
	if plan.Top != 3 || plan.Parallel != nil {
		t.Errorf("top = %d parallel = %v", plan.Top, plan.Parallel)
	}
	// A pruned search must know how many ranks the reply carries.
	if plan.Space.Top != 3 {
		t.Errorf("space top = %d, want the request's 3", plan.Space.Top)
	}
}

func isBadRequest(err error) bool { return errors.Is(err, v1.ErrBadRequest) }

// optimizeReq is a pinned-strategy optimize request.
func optimizeReq(spec *v1.OptSpec) *v1.OptimizeRequest {
	return &v1.OptimizeRequest{
		PlanRequest: v1.PlanRequest{
			System:   "mepipe",
			Model:    v1.ModelSpec{Preset: "7b"},
			Cluster:  v1.ClusterSpec{Preset: "rtx4090", Servers: 1},
			Training: v1.TrainingSpec{GlobalBatch: 8},
			Parallel: &v1.ParallelSpec{PP: 8},
		},
		Opt: spec,
	}
}

// TestOptimizeNormalize pins the optimizer-spec defaults and the
// requirement for a pinned strategy.
func TestOptimizeNormalize(t *testing.T) {
	norm, err := optimizeReq(nil).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := v1.OptSpec{Seed: v1.DefaultOptSeed, Iters: v1.DefaultOptIters, Proposals: v1.DefaultOptProposals}
	if norm.Opt == nil || *norm.Opt != want {
		t.Errorf("defaulted spec = %+v, want %+v", norm.Opt, want)
	}
	if norm.Parallel == nil || norm.Parallel.DP == 0 {
		t.Errorf("plan was not normalized: %+v", norm.PlanRequest)
	}

	noPar := optimizeReq(nil)
	noPar.Parallel = nil
	if _, err := noPar.Normalize(); !errors.Is(err, v1.ErrBadRequest) {
		t.Errorf("missing parallel: err = %v, want ErrBadRequest", err)
	}
	bad := optimizeReq(&v1.OptSpec{Iters: -1})
	if _, err := bad.Normalize(); !errors.Is(err, v1.ErrBadRequest) {
		t.Errorf("negative iters: err = %v, want ErrBadRequest", err)
	}
}

// TestOptimizeKey pins the optimize key's equivalence class: defaults
// spelled out hash like defaults omitted, the optimizer spec is part of
// the key, and the key never collides with the simulate key of the same
// plan.
func TestOptimizeKey(t *testing.T) {
	k1, err := optimizeReq(nil).Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := optimizeReq(&v1.OptSpec{Seed: v1.DefaultOptSeed, Iters: v1.DefaultOptIters, Proposals: v1.DefaultOptProposals}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("spelled-out defaults hash differently from omitted defaults")
	}
	k3, err := optimizeReq(&v1.OptSpec{Seed: 2}).Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("a different optimizer seed must change the key")
	}
	sim, err := optimizeReq(nil).PlanRequest.Key("simulate")
	if err != nil {
		t.Fatal(err)
	}
	if sim == k1 {
		t.Error("optimize key collides with the simulate key of the same plan")
	}
}
