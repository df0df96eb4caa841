package nn

import (
	"math/rand"

	"mepipe/internal/tensor"
)

// Embedding maps token ids to hidden vectors.
type Embedding struct {
	Table, DTable *tensor.Matrix // [vocab × hidden]
}

func newEmbedding(rng *rand.Rand, cfg Config) *Embedding {
	e := &Embedding{Table: tensor.New(cfg.Vocab, cfg.Hidden), DTable: tensor.New(cfg.Vocab, cfg.Hidden)}
	e.Table.RandInit(rng, 0.1)
	return e
}

// Forward gathers the rows for the given tokens into an arena buffer (or a
// fresh matrix when sc is nil). The caller owns the result.
func (e *Embedding) Forward(sc *tensor.Scratch, tokens []int) *tensor.Matrix {
	out := sc.GetRaw(len(tokens), e.Table.Cols)
	for i, t := range tokens {
		copy(out.Row(i), e.Table.Row(t))
	}
	return out
}

// Backward scatter-adds dX into the token rows.
func (e *Embedding) Backward(tokens []int, dx *tensor.Matrix) {
	for i, t := range tokens {
		row := e.DTable.Row(t)
		for j, v := range dx.Row(i) {
			row[j] += v
		}
	}
}

// Head is the final RMSNorm plus LM projection and loss.
type Head struct {
	Norm, DNorm []float32
	W           Linear
}

func newHead(rng *rand.Rand, cfg Config) *Head {
	return &Head{Norm: ones(cfg.Hidden), DNorm: make([]float32, cfg.Hidden), W: newLinear(rng, cfg.Hidden, cfg.Vocab)}
}

// headSave retains the head's forward tensors for one slice.
type headSave struct {
	x, xn *tensor.Matrix
	inv   []float32
}

// HeadState is the per-micro-batch bookkeeping of the head (one save per
// slice start position). Reusable across samples via Reset.
type HeadState struct {
	saves map[int]*headSave
	pool  []*headSave
}

// NewHeadState returns an empty head state.
func NewHeadState() *HeadState { return &HeadState{saves: map[int]*headSave{}} }

// Reset drops any leftover saves so the state can serve the next sample.
func (st *HeadState) Reset() { clear(st.saves) }

// getSave recycles a headSave from the pool.
//
//mepipe:coldalloc pool miss builds one headSave per live slice; putSave recycles it, so steady state never misses
func (st *HeadState) getSave() *headSave {
	if n := len(st.pool); n > 0 {
		sv := st.pool[n-1]
		st.pool[n-1] = nil
		st.pool = st.pool[:n-1]
		return sv
	}
	return &headSave{}
}

func (st *HeadState) putSave(sv *headSave) {
	*sv = headSave{}
	st.pool = append(st.pool, sv)
}

// Forward computes logits and retains state under the given key (the
// slice's start position). The head takes ownership of x; the caller owns
// the returned logits.
func (h *Head) Forward(sc *tensor.Scratch, x *tensor.Matrix, st *HeadState, key int) *tensor.Matrix {
	sv := st.getSave()
	sv.x = x
	sv.xn = sc.GetRaw(x.Rows, x.Cols)
	sv.inv = tensor.RMSNorm(sv.xn, x, h.Norm, sc.GetVec(x.Rows))
	st.saves[key] = sv
	logits := sc.Get(x.Rows, h.W.W.Cols)
	sc.MatMul(logits, sv.xn, h.W.W)
	return logits
}

// Backward consumes dLogits for the slice saved under key (taking ownership
// of it), returning dX and the head's deferred weight-gradient task.
func (h *Head) Backward(sc *tensor.Scratch, dLogits *tensor.Matrix, st *HeadState, key int, tasks []WeightTask) (*tensor.Matrix, []WeightTask) {
	sv := st.saves[key]
	delete(st.saves, key)
	dXn := sc.Get(sv.xn.Rows, sv.xn.Cols)
	sc.MatMulBT(dXn, dLogits, h.W.W)
	tasks = append(tasks, WeightTask{lin: &h.W, x: sv.xn, dy: dLogits, freeX: true, freeDY: true})
	dX := sc.Get(sv.x.Rows, sv.x.Cols)
	tensor.RMSNormBackward(dX, h.DNorm, dXn, sv.x, h.Norm, sv.inv)
	sc.Put(dXn)
	sc.Put(sv.x)
	sc.PutVec(sv.inv)
	if sc != nil {
		// As with LayerState saves: snapshots share these pointers, so
		// only recycle when running with an arena (never under resilience).
		st.putSave(sv)
	}
	return dX, tasks
}

// Model is the full decoder.
type Model struct {
	Cfg    Config
	Embed  *Embedding
	Layers []*Layer
	Head   *Head
	// LeanActivations enables the recomputation technique (§2): forward
	// passes retain only each layer's slice input, and backward passes
	// replay the forward math to rebuild the rest. Gradients are
	// identical; memory drops to roughly the layer inputs plus KV cache.
	LeanActivations bool

	// params is the parameter table (params.go), built once by NewModel.
	params []Param
}

// NewModel builds a model with deterministic weights from the seed.
func NewModel(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Cfg: cfg, Embed: newEmbedding(rng, cfg)}
	for i := 0; i < cfg.Layers; i++ {
		m.Layers = append(m.Layers, newLayer(rng, cfg))
	}
	m.Head = newHead(rng, cfg)
	m.buildParams()
	return m, nil
}

// TrainSequential runs one full iteration — forward and backward over every
// micro-batch, slice by slice, weight gradients computed inline — and
// returns the mean loss. It is the single-device reference the pipeline
// runtime is validated against. batch[i] is one sample of SeqLen+1 tokens
// (inputs plus next-token targets); slices is the sequence pipeline size.
//
// Each call builds a throwaway Trainer; callers stepping in a loop should
// hold a Trainer themselves to reuse its buffers across steps.
func (m *Model) TrainSequential(batch [][]int, slices int) (float64, error) {
	t := NewTrainer(m)
	defer t.Close()
	return t.Step(batch, slices)
}
