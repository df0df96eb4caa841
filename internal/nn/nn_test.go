package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mepipe/internal/tensor"
)

func tinyCfg() Config {
	return Config{Hidden: 8, Heads: 2, FFN: 16, Vocab: 11, Layers: 2, SeqLen: 8}
}

func randBatch(rng *rand.Rand, cfg Config, n int) [][]int {
	batch := make([][]int, n)
	for i := range batch {
		s := make([]int, cfg.SeqLen+1)
		for j := range s {
			s[j] = rng.Intn(cfg.Vocab)
		}
		batch[i] = s
	}
	return batch
}

// TestSliceDecompositionExactLoss: processing a sample in s slices with the
// KV cache must compute the same loss as processing it whole — the
// correctness core of sequence pipeline parallelism (Fig 3).
func TestSliceDecompositionExactLoss(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(11))
	batch := randBatch(rng, cfg, 2)
	var ref float64
	for _, slices := range []int{1, 2, 4, 8} {
		m, err := NewModel(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := m.TrainSequential(batch, slices)
		if err != nil {
			t.Fatal(err)
		}
		if slices == 1 {
			ref = loss
			continue
		}
		if math.Abs(loss-ref) > 1e-4 {
			t.Errorf("slices=%d: loss %.8f differs from unsliced %.8f", slices, loss, ref)
		}
	}
}

// TestSliceDecompositionGrads: gradients under slicing match the unsliced
// reference within float32 reordering noise.
func TestSliceDecompositionGrads(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(12))
	batch := randBatch(rng, cfg, 1)

	ref, err := NewModel(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.TrainSequential(batch, 1); err != nil {
		t.Fatal(err)
	}
	for _, slices := range []int{2, 4} {
		m, _ := NewModel(cfg, 7)
		if _, err := m.TrainSequential(batch, slices); err != nil {
			t.Fatal(err)
		}
		refG, gotG := ref.Grads(), m.Grads()
		for name, rg := range refG {
			if d := tensor.MaxAbsDiff(rg, gotG[name]); d > 1e-4 {
				t.Errorf("slices=%d: grad %s differs by %g", slices, name, d)
			}
		}
	}
}

// TestFullModelGradCheck validates the entire manual backward against
// finite differences on a sample of weights from every parameter tensor.
func TestFullModelGradCheck(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(13))
	batch := randBatch(rng, cfg, 1)
	m, err := NewModel(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		m.ZeroGrads()
		l, err := m.TrainSequential(batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	loss() // populate analytic grads
	const eps = 2e-3
	for _, p := range m.Params() {
		// Sample a handful of coordinates per tensor.
		for trial := 0; trial < 3; trial++ {
			idx := rng.Intn(len(p.W.Data))
			analytic := float64(p.G.Data[idx])
			orig := p.W.Data[idx]
			p.W.Data[idx] = orig + eps
			lp := loss()
			p.W.Data[idx] = orig - eps
			lm := loss()
			p.W.Data[idx] = orig
			numeric := (lp - lm) / (2 * eps)
			// Restore analytic grads for the next probe.
			loss()
			tol := 2e-2*math.Abs(numeric) + 3e-4
			if math.Abs(numeric-analytic) > tol {
				t.Errorf("%s[%d]: numeric %.6f vs analytic %.6f", p.Name, idx, numeric, analytic)
			}
		}
	}
}

// TestTrainingReducesLoss: a few SGD steps on a repeated batch must reduce
// the loss — the end-to-end sanity check behind examples/tinytrain.
func TestTrainingReducesLoss(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(14))
	batch := randBatch(rng, cfg, 2)
	m, err := NewModel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, last := 0.0, 0.0
	for step := 0; step < 12; step++ {
		m.ZeroGrads()
		loss, err := m.TrainSequential(batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		m.SGDStep(0.05)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

// TestDeferredWeightTasks: running the stashed GEMMs out of order and late
// must produce identical weight gradients — §5's freedom.
func TestDeferredWeightTasks(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(15))
	batch := randBatch(rng, cfg, 1)
	inline, _ := NewModel(cfg, 9)
	if _, err := inline.TrainSequential(batch, 2); err != nil {
		t.Fatal(err)
	}

	deferred, _ := NewModel(cfg, 9)
	// Re-run manually with all weight tasks collected and executed in
	// reverse at the very end.
	cfgM := deferred.Cfg
	tTok := cfgM.SeqLen / 2
	sample := batch[0]
	states := make([]*LayerState, len(deferred.Layers))
	for i := range states {
		states[i] = NewLayerState(cfgM)
	}
	headSaves := NewHeadState()
	logits := make([]*tensor.Matrix, 2)
	for s := 0; s < 2; s++ {
		x := deferred.Embed.Forward(nil, sample[s*tTok:s*tTok+tTok])
		for li, l := range deferred.Layers {
			x = l.ForwardSlice(nil, states[li], x, s*tTok)
		}
		logits[s] = deferred.Head.Forward(nil, x, headSaves, s*tTok)
	}
	var all []WeightTask
	for s := 1; s >= 0; s-- {
		dl := tensor.New(tTok, cfgM.Vocab)
		tensor.CrossEntropy(dl, logits[s], sample[s*tTok+1:s*tTok+tTok+1])
		dl.Scale(0.5) // match TrainSequential's 1/(slices·batch) loss scaling
		dx, tasks := deferred.Head.Backward(nil, dl, headSaves, s*tTok, nil)
		for li := len(deferred.Layers) - 1; li >= 0; li-- {
			dx, tasks = deferred.Layers[li].BackwardSlice(nil, states[li], s*tTok, dx, tasks)
		}
		deferred.Embed.Backward(sample[s*tTok:s*tTok+tTok], dx)
		all = append(all, tasks...)
	}
	for i := len(all) - 1; i >= 0; i-- { // reversed execution order
		all[i].Run()
	}
	refG, gotG := inline.Grads(), deferred.Grads()
	for name, rg := range refG {
		if d := tensor.MaxAbsDiff(rg, gotG[name]); d > 1e-4 {
			t.Errorf("deferred W: grad %s differs by %g", name, d)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyCfg()
	bad.Heads = 3
	if err := bad.Validate(); err == nil {
		t.Error("indivisible heads accepted")
	}
	if _, err := NewModel(Config{}, 1); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTrainSequentialErrors(t *testing.T) {
	m, _ := NewModel(tinyCfg(), 1)
	if _, err := m.TrainSequential([][]int{{1, 2}}, 1); err == nil {
		t.Error("short sample accepted")
	}
	if _, err := m.TrainSequential(randBatch(rand.New(rand.NewSource(1)), tinyCfg(), 1), 3); err == nil {
		t.Error("indivisible slice count accepted")
	}
}

// TestRecomputeGradEquivalence: the recomputation technique must change
// nothing about the gradients — forward replay is deterministic.
func TestRecomputeGradEquivalence(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(88))
	batch := randBatch(rng, cfg, 2)
	full, _ := NewModel(cfg, 5)
	lossFull, err := full.TrainSequential(batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	lean, _ := NewModel(cfg, 5)
	lean.LeanActivations = true
	lossLean, err := lean.TrainSequential(batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lossFull != lossLean {
		t.Errorf("recompute changed the loss: %v vs %v", lossFull, lossLean)
	}
	fg, lg := full.Grads(), lean.Grads()
	for name, g := range fg {
		if d := tensor.MaxAbsDiff(g, lg[name]); d != 0 {
			t.Errorf("recompute changed grad %s by %g", name, d)
		}
	}
}

// TestCheckpointRoundTrip: save → load reproduces the parameters exactly,
// and resumed training matches uninterrupted training step for step.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(61))
	batch := randBatch(rng, cfg, 2)

	// Uninterrupted: 6 steps.
	full, _ := NewModel(cfg, 33)
	for step := 0; step < 6; step++ {
		full.ZeroGrads()
		if _, err := full.TrainSequential(batch, 2); err != nil {
			t.Fatal(err)
		}
		full.SGDStep(0.05)
	}

	// Interrupted: 3 steps, checkpoint, "crash", reload, 3 more steps.
	first, _ := NewModel(cfg, 33)
	for step := 0; step < 3; step++ {
		first.ZeroGrads()
		if _, err := first.TrainSequential(batch, 2); err != nil {
			t.Fatal(err)
		}
		first.SGDStep(0.05)
	}
	var ckpt bytes.Buffer
	if err := first.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	resumed, _ := NewModel(cfg, 999) // different seed: weights overwritten by Load
	if err := resumed.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if d := MaxParamDiff(first, resumed); d != 0 {
		t.Fatalf("load did not reproduce parameters (diff %g)", d)
	}
	for step := 0; step < 3; step++ {
		resumed.ZeroGrads()
		if _, err := resumed.TrainSequential(batch, 2); err != nil {
			t.Fatal(err)
		}
		resumed.SGDStep(0.05)
	}
	if d := MaxParamDiff(full, resumed); d != 0 {
		t.Errorf("resumed training diverged from uninterrupted (diff %g)", d)
	}
}

func TestCheckpointRejectsBadInput(t *testing.T) {
	cfg := tinyCfg()
	m, _ := NewModel(cfg, 1)
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	// Wrong config.
	other := cfg
	other.Hidden *= 2
	om, _ := NewModel(other, 1)
	if err := om.Load(bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Error("mismatched config accepted")
	}
	// Truncated.
	if err := m.Load(bytes.NewReader(ckpt.Bytes()[:ckpt.Len()/2])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Trailing garbage.
	garbled := append(append([]byte(nil), ckpt.Bytes()...), 0xff)
	if err := m.Load(bytes.NewReader(garbled)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Wrong magic.
	bad := append([]byte(nil), ckpt.Bytes()...)
	bad[0] ^= 0xff
	if err := m.Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

// saveHash is the SHA-256 of the model's checkpoint bytes.
func saveHash(t *testing.T, m *Model) string {
	t.Helper()
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// TestCheckpointBytesPinned: the checkpoint of a freshly seeded model is
// byte-for-byte the one recorded before the parameter table existed — the
// table walks the parameters in the format's original order.
func TestCheckpointBytesPinned(t *testing.T) {
	m, _ := NewModel(tinyCfg(), 42)
	const want = "61a669a336f399694fbbc0910a5732656a6e311cbb6670693485d313c0dd1d29"
	if got := saveHash(t, m); got != want {
		t.Errorf("checkpoint sha256 %s, want %s", got, want)
	}
}

// TestAdamPinned: three fixed Adam steps leave bitwise the weights
// recorded before Adam's moments moved onto the parameter table.
func TestAdamPinned(t *testing.T) {
	m, _ := NewModel(tinyCfg(), 5)
	batch := randBatch(rand.New(rand.NewSource(6)), tinyCfg(), 2)
	opt := NewAdam(0.01)
	for i := 0; i < 3; i++ {
		m.ZeroGrads()
		if _, err := m.TrainSequential(batch, 2); err != nil {
			t.Fatal(err)
		}
		opt.Step(m)
	}
	const want = "b59be7bc087badce2d3126e6552d827afef2b140986fc9c1dccde5821be4f72a"
	if got := saveHash(t, m); got != want {
		t.Errorf("weights after Adam sha256 %s, want %s", got, want)
	}
}

// TestParamTable: the table lists every tensor of the model once, in
// checkpoint order, with unique names, and its norm entries alias the
// layers' own slices.
func TestParamTable(t *testing.T) {
	cfg := tinyCfg()
	m, _ := NewModel(cfg, 1)
	ps := m.Params()
	if want := 1 + 9*cfg.Layers + 2; len(ps) != want {
		t.Fatalf("%d parameters, want %d", len(ps), want)
	}
	names := map[string]bool{}
	floats := 0
	for _, p := range ps {
		if names[p.Name] {
			t.Errorf("duplicate name %s", p.Name)
		}
		names[p.Name] = true
		if p.W.Rows != p.G.Rows || p.W.Cols != p.G.Cols || len(p.W.Data) != p.W.Rows*p.W.Cols {
			t.Errorf("%s: weight %dx%d, gradient %dx%d", p.Name, p.W.Rows, p.W.Cols, p.G.Rows, p.G.Cols)
		}
		floats += len(p.W.Data)
	}
	var ckpt bytes.Buffer
	if err := m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if got := ckpt.Len() - 7*4; got != floats*4 {
		t.Errorf("checkpoint holds %d tensor bytes, table %d", got, floats*4)
	}
	if ps[0].Owner != OwnerEmbed || ps[len(ps)-1].Owner != OwnerHead || ps[1].Owner != 0 {
		t.Errorf("owners %d, %d, %d", ps[0].Owner, ps[1].Owner, ps[len(ps)-1].Owner)
	}
	g := m.Grads()
	g["l1.mlpNorm"].Data[2] = 5
	g["head.norm"].Data[0] = 6
	if m.Layers[1].DMLPNorm[2] != 5 || m.Head.DNorm[0] != 6 {
		t.Error("norm gradient entries do not alias the model's slices")
	}
	m.ZeroGrads()
	if m.Layers[1].DMLPNorm[2] != 0 || m.Head.DNorm[0] != 0 {
		t.Error("ZeroGrads left norm gradients set")
	}
}
