// Package nn implements a real (tiny) Llama-style decoder with manual
// forward and backward passes at slice granularity — the numeric substrate
// behind the executable pipeline runtime. It mirrors the structure the
// paper's scheduler exploits:
//
//   - forward processes a sample slice by slice, each slice appending its
//     keys/values to a per-micro-batch cache that later slices attend to
//     (Fig 3's dependency);
//   - backward runs slices in reverse, accumulating dK/dV contributions
//     from later slices into earlier ones;
//   - activation-gradient and weight-gradient computation are separable:
//     BackwardSlice produces dX and *stashes* the seven per-layer GEMMs
//     (Wq, Wk, Wv, Wo, gate, up, down) as WeightTasks that can run at any
//     later time, in any order — exactly the §5 decomposition.
//
// Every slice-level entry point takes a *tensor.Scratch arena (nil for
// plain allocation). With an arena, the passes follow a strict ownership
// protocol: ForwardSlice and Head.Forward take ownership of their input x,
// BackwardSlice and Head.Backward take ownership of their incoming
// gradient, and buffers retained by deferred WeightTasks are returned to
// the arena by Release once the whole task family has run. Steady-state
// training then allocates nothing per microbatch (see Trainer).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mepipe/internal/errs"
	"mepipe/internal/tensor"
)

// Config sizes the decoder.
type Config struct {
	Hidden, Heads, FFN, Vocab, Layers, SeqLen int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Hidden <= 0 || c.Heads <= 0 || c.FFN <= 0 || c.Vocab <= 0 || c.Layers <= 0 || c.SeqLen <= 0:
		return fmt.Errorf("nn: non-positive field in %+v", c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("nn: hidden %d not divisible by %d heads", c.Hidden, c.Heads)
	}
	return nil
}

// CheckSample reports whether sample is one training sample: SeqLen+1
// tokens, every embedded one (all but the last) in [0, Vocab) and every
// target (all but the first) below Vocab. A negative target is one
// tensor.CrossEntropy ignores. The error wraps errs.ErrIncompatible.
func (c Config) CheckSample(sample []int) error {
	if len(sample) != c.SeqLen+1 {
		return fmt.Errorf("%d tokens, want %d: %w", len(sample), c.SeqLen+1, errs.ErrIncompatible)
	}
	for j, tok := range sample {
		if tok >= c.Vocab || tok < 0 && j < len(sample)-1 {
			return fmt.Errorf("token %d at position %d is outside the vocabulary [0, %d): %w", tok, j, c.Vocab, errs.ErrIncompatible)
		}
	}
	return nil
}

// Linear is a bias-free projection with separable weight gradients.
type Linear struct {
	W, DW *tensor.Matrix // [in×out]
}

func newLinear(rng *rand.Rand, in, out int) Linear {
	l := Linear{W: tensor.New(in, out), DW: tensor.New(in, out)}
	l.W.RandInit(rng, float32(1/math.Sqrt(float64(in))))
	return l
}

// Forward computes y = x·W.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := tensor.New(x.Rows, l.W.Cols)
	tensor.MatMul(y, x, l.W)
	return y
}

// BackwardAct accumulates dx += dy·Wᵀ.
func (l *Linear) BackwardAct(dx, dy *tensor.Matrix) {
	tensor.MatMulBT(dx, dy, l.W)
}

// BackwardWeight accumulates DW += xᵀ·dy — the §5-deferrable GEMM.
func (l *Linear) BackwardWeight(x, dy *tensor.Matrix) {
	tensor.MatMulAT(l.DW, x, dy)
}

// WeightTask is one deferred weight-gradient GEMM. The freeX/freeDY flags
// mark the task that is the last user of each retained buffer; Release
// consults them once the family has run.
type WeightTask struct {
	lin           *Linear
	x, dy         *tensor.Matrix
	freeX, freeDY bool
}

// Run executes the deferred GEMM.
func (t WeightTask) Run() { t.lin.BackwardWeight(t.x, t.dy) }

// RunCounted is Run with the GEMM's FLOPs counted against sc (nil-safe).
func (t WeightTask) RunCounted(sc *tensor.Scratch) {
	sc.MatMulAT(t.lin.DW, t.x, t.dy)
}

// Release returns the buffers retained by a family of weight tasks to the
// arena. Call it exactly once per family, only after every task in the
// family has Run — tasks may share buffers (Wq/Wk/Wv share the normed
// input), so releasing earlier would corrupt still-pending GEMMs. With a
// nil scratch it is a no-op (the garbage collector takes over).
func Release(sc *tensor.Scratch, tasks []WeightTask) {
	if sc == nil {
		return
	}
	for i := range tasks {
		t := &tasks[i]
		if t.freeX {
			sc.Put(t.x)
		}
		if t.freeDY {
			sc.Put(t.dy)
		}
		t.x, t.dy = nil, nil
	}
}

// Layer is one transformer block.
type Layer struct {
	cfg Config

	AttnNorm, MLPNorm   []float32
	DAttnNorm, DMLPNorm []float32

	Wq, Wk, Wv, Wo Linear
	Wg, Wu, Wd     Linear
}

func newLayer(rng *rand.Rand, cfg Config) *Layer {
	h, f := cfg.Hidden, cfg.FFN
	l := &Layer{
		cfg:       cfg,
		AttnNorm:  ones(h),
		MLPNorm:   ones(h),
		DAttnNorm: make([]float32, h),
		DMLPNorm:  make([]float32, h),
		Wq:        newLinear(rng, h, h),
		Wk:        newLinear(rng, h, h),
		Wv:        newLinear(rng, h, h),
		Wo:        newLinear(rng, h, h),
		Wg:        newLinear(rng, h, f),
		Wu:        newLinear(rng, h, f),
		Wd:        newLinear(rng, f, h),
	}
	return l
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// sliceSave holds everything a slice's backward needs.
type sliceSave struct {
	start      int // absolute position of the slice's first token
	xIn        *tensor.Matrix
	inv1, inv2 []float32
	xn1        *tensor.Matrix
	q          *tensor.Matrix
	probs      []*tensor.Matrix // per head, [t × cachedLen]
	ctx        *tensor.Matrix   // pre-Wo attention output
	xMid       *tensor.Matrix
	xn2        *tensor.Matrix
	g, u, act  *tensor.Matrix
}

// LayerState is the per-micro-batch runtime state of one layer: the KV
// cache grown in place by forward slices (capacity preallocated for the
// full sequence) and the dK/dV accumulators filled by backward slices in
// reverse order. States are reusable: Reset rewinds one for the next
// sample without giving up its buffers.
type LayerState struct {
	K, V   *tensor.Matrix // [cachedTokens × hidden]
	dK, dV *tensor.Matrix
	saves  map[int]*sliceSave // by slice start position
	pool   []*sliceSave       // recycled saves
}

// NewLayerState returns an empty state for one micro-batch.
func NewLayerState(cfg Config) *LayerState {
	return &LayerState{
		K:     tensor.NewWithRowCap(0, cfg.Hidden, cfg.SeqLen),
		V:     tensor.NewWithRowCap(0, cfg.Hidden, cfg.SeqLen),
		saves: map[int]*sliceSave{},
	}
}

// Reset rewinds the state for a fresh sample, keeping every buffer.
func (st *LayerState) Reset() {
	st.K.Rows, st.K.Data = 0, st.K.Data[:0]
	st.V.Rows, st.V.Data = 0, st.V.Data[:0]
	if st.dK != nil {
		st.dK.Rows, st.dK.Data = 0, st.dK.Data[:0]
		st.dV.Rows, st.dV.Data = 0, st.dV.Data[:0]
	}
	clear(st.saves)
}

// getSave recycles a sliceSave from the pool.
//
//mepipe:coldalloc pool miss builds one sliceSave per live slice; putSave recycles it, so steady state never misses
func (st *LayerState) getSave() *sliceSave {
	if n := len(st.pool); n > 0 {
		sv := st.pool[n-1]
		st.pool[n-1] = nil
		st.pool = st.pool[:n-1]
		return sv
	}
	return &sliceSave{}
}

func (st *LayerState) putSave(sv *sliceSave) {
	*sv = sliceSave{probs: sv.probs[:0]}
	st.pool = append(st.pool, sv)
}

// ensureGrads sizes the dK/dV accumulators to the current cache (zeroed)
// the first time a micro-batch's backward touches them.
//
//mepipe:coldalloc first-touch accumulator sizing; later steps reuse capacity (growZero only reallocates on cache growth)
func (st *LayerState) ensureGrads() {
	if st.dK == nil {
		st.dK = tensor.New(st.K.Rows, st.K.Cols)
		st.dV = tensor.New(st.V.Rows, st.V.Cols)
		return
	}
	if st.dK.Rows != st.K.Rows {
		growZero(st.dK, st.K.Rows)
		growZero(st.dV, st.V.Rows)
	}
}

// growZero resizes m to rows (reusing capacity when possible) and zeroes it.
func growZero(m *tensor.Matrix, rows int) {
	need := rows * m.Cols
	if cap(m.Data) < need {
		m.Data = make([]float32, need)
	} else {
		m.Data = m.Data[:cap(m.Data)][:need]
	}
	m.Rows = rows
	clear(m.Data)
}

// ForwardSlice runs one slice of tokens (x: [t×hidden], first token at
// absolute position start) through the layer, growing the KV cache. The
// layer takes ownership of x (it is retained for the backward pass and
// eventually returned to the arena). With lean set, only the slice input is
// retained — the recomputation technique (§2): the backward pass rebuilds
// the intermediates from xIn and the KV cache at the cost of replaying the
// forward math.
func (l *Layer) ForwardSlice(sc *tensor.Scratch, st *LayerState, x *tensor.Matrix, start int) *tensor.Matrix {
	return l.forwardSlice(sc, st, x, start, false)
}

// ForwardSliceLean is ForwardSlice under activation recomputation.
func (l *Layer) ForwardSliceLean(sc *tensor.Scratch, st *LayerState, x *tensor.Matrix, start int) *tensor.Matrix {
	return l.forwardSlice(sc, st, x, start, true)
}

func (l *Layer) forwardSlice(sc *tensor.Scratch, st *LayerState, x *tensor.Matrix, start int, lean bool) *tensor.Matrix {
	if st.K.Rows != start {
		panic(fmt.Sprintf("nn: slice at %d but cache holds %d tokens (slices must arrive in order)", start, st.K.Rows))
	}
	t := x.Rows
	sv := st.getSave()
	sv.start, sv.xIn = start, x
	// Project and append this slice's keys/values; later slices need them
	// regardless of recomputation.
	xn1 := sc.GetRaw(t, l.cfg.Hidden)
	inv1 := tensor.RMSNorm(xn1, x, l.AttnNorm, sc.GetVec(t))
	proj := sc.Get(t, l.cfg.Hidden)
	sc.MatMul(proj, xn1, l.Wk.W)
	st.K.AppendRows(proj)
	proj.Zero()
	sc.MatMul(proj, xn1, l.Wv.W)
	st.V.AppendRows(proj)
	sc.Put(proj)
	y := l.computeSlice(sc, st, sv, xn1, inv1)
	if lean {
		// Drop everything but the input; BackwardSlice rebuilds it.
		l.releaseCompute(sc, sv)
	}
	st.saves[start] = sv
	return y
}

// releaseCompute returns every intermediate of a save except xIn to the
// arena and clears the fields (so sv.q == nil marks a lean save).
func (l *Layer) releaseCompute(sc *tensor.Scratch, sv *sliceSave) {
	sc.Put(sv.xn1)
	sc.Put(sv.q)
	sc.Put(sv.ctx)
	sc.Put(sv.xMid)
	sc.Put(sv.xn2)
	sc.Put(sv.g)
	sc.Put(sv.u)
	sc.Put(sv.act)
	sc.PutVec(sv.inv1)
	sc.PutVec(sv.inv2)
	for i, p := range sv.probs {
		sc.Put(p)
		sv.probs[i] = nil
	}
	*sv = sliceSave{start: sv.start, xIn: sv.xIn, probs: sv.probs[:0]}
}

// computeSlice runs attention and the MLP for the slice described by sv
// (whose xIn is set and whose K/V rows are already in the cache up to
// start+t), filling the save and returning the layer output. The layer
// takes ownership of xn1 and inv1 (stored in the save).
func (l *Layer) computeSlice(sc *tensor.Scratch, st *LayerState, sv *sliceSave, xn1 *tensor.Matrix, inv1 []float32) *tensor.Matrix {
	h := l.cfg.Hidden
	nh := l.cfg.Heads
	hd := h / nh
	t := sv.xIn.Rows
	cached := sv.start + t

	sv.xn1, sv.inv1 = xn1, inv1
	sv.q = sc.Get(t, h)
	sc.MatMul(sv.q, sv.xn1, l.Wq.W)

	// Per-head causal attention against the cache as of this slice.
	sv.ctx = sc.GetRaw(t, h)
	sv.probs = sv.probs[:0]
	scale := float32(1 / math.Sqrt(float64(hd)))
	qh := sc.GetRaw(t, hd)
	kh := sc.GetRaw(cached, hd)
	vh := sc.GetRaw(cached, hd)
	ctxh := sc.Get(t, hd)
	for hI := 0; hI < nh; hI++ {
		gatherHead(qh, sv.q.Data, t, h, hI, hd)
		gatherHead(kh, st.K.Data, cached, h, hI, hd)
		gatherHead(vh, st.V.Data, cached, h, hI, hd)
		scores := sc.Get(t, cached)
		sc.MatMulBT(scores, qh, kh)
		scores.Scale(scale)
		tensor.SoftmaxRowsCausal(scores, sv.start)
		sv.probs = append(sv.probs, scores)
		ctxh.Zero()
		sc.MatMul(ctxh, scores, vh)
		writeHead(sv.ctx, ctxh, hI, hd)
	}
	sc.Put(qh)
	sc.Put(kh)
	sc.Put(vh)
	// ctxh was zeroed before each use; its last contents are dead.
	sc.Put(ctxh)
	attnOut := sc.Get(t, h)
	sc.MatMul(attnOut, sv.ctx, l.Wo.W)

	sv.xMid = sc.GetRaw(t, h)
	sv.xMid.CopyFrom(sv.xIn)
	sv.xMid.Add(attnOut)
	sc.Put(attnOut)

	sv.xn2 = sc.GetRaw(t, h)
	sv.inv2 = tensor.RMSNorm(sv.xn2, sv.xMid, l.MLPNorm, sc.GetVec(t))
	sv.g = sc.Get(t, l.cfg.FFN)
	sc.MatMul(sv.g, sv.xn2, l.Wg.W)
	sv.u = sc.Get(t, l.cfg.FFN)
	sc.MatMul(sv.u, sv.xn2, l.Wu.W)
	sv.act = sc.GetRaw(t, l.cfg.FFN)
	tensor.SiLU(sv.act, sv.g)
	tensor.Mul(sv.act, sv.act, sv.u)
	mlpOut := sc.Get(t, h)
	sc.MatMul(mlpOut, sv.act, l.Wd.W)

	y := sc.GetRaw(t, h)
	y.CopyFrom(sv.xMid)
	y.Add(mlpOut)
	sc.Put(mlpOut)
	return y
}

// gatherHead copies head hI's columns of the first dst.Rows rows of a
// row-major [·×stride] buffer into dst (fully overwriting it).
func gatherHead(dst *tensor.Matrix, data []float32, rows, stride, hI, hd int) {
	for r := 0; r < rows; r++ {
		copy(dst.Row(r), data[r*stride+hI*hd:r*stride+(hI+1)*hd])
	}
}

// writeHead copies a [rows×hd] block into head hI's columns (overwriting).
func writeHead(dst, src *tensor.Matrix, hI, hd int) {
	for r := 0; r < src.Rows; r++ {
		copy(dst.Row(r)[hI*hd:(hI+1)*hd], src.Row(r))
	}
}

// addHead accumulates a [rows×hd] block into head hI's columns of dst,
// starting at dst row rowOff.
func addHead(dst, src *tensor.Matrix, rowOff, hI, hd int) {
	for r := 0; r < src.Rows; r++ {
		drow := dst.Row(rowOff + r)[hI*hd : (hI+1)*hd]
		srow := src.Row(r)
		for c := range srow {
			drow[c] += srow[c]
		}
	}
}

// copyRows copies rows [off, off+dst.Rows) of src into dst (overwriting).
func copyRows(dst, src *tensor.Matrix, off int) {
	copy(dst.Data, src.Data[off*src.Cols:(off+dst.Rows)*src.Cols])
}

// BackwardSlice consumes dY for the slice that starts at `start`, returning
// dX and appending the layer's seven deferred weight-gradient GEMMs to
// tasks. The layer takes ownership of dy (it is retained by the Wd task
// until Release). Slices MUST be processed in reverse order: the dK/dV
// contributions of later slices land in the state's accumulators before
// earlier slices read their own rows.
func (l *Layer) BackwardSlice(sc *tensor.Scratch, st *LayerState, start int, dy *tensor.Matrix, tasks []WeightTask) (*tensor.Matrix, []WeightTask) {
	sv, ok := st.saves[start]
	if !ok {
		panic(fmt.Sprintf("nn: backward for unseen slice at %d", start))
	}
	delete(st.saves, start)
	if sv.q == nil {
		// Lean forward: replay the forward math to rebuild the
		// intermediates (identical inputs, identical results).
		xn1 := sc.GetRaw(sv.xIn.Rows, l.cfg.Hidden)
		inv1 := tensor.RMSNorm(xn1, sv.xIn, l.AttnNorm, sc.GetVec(sv.xIn.Rows))
		sc.Put(l.computeSlice(sc, st, sv, xn1, inv1))
	}
	h, nh := l.cfg.Hidden, l.cfg.Heads
	hd := h / nh
	t := dy.Rows
	st.ensureGrads()

	// MLP backward. y = xMid + Wd(silu(Wg xn2) ⊙ Wu xn2).
	dXmid := sc.GetRaw(t, h)
	dXmid.CopyFrom(dy)
	dAct := sc.Get(t, l.cfg.FFN)
	sc.MatMulBT(dAct, dy, l.Wd.W)
	tasks = append(tasks, WeightTask{lin: &l.Wd, x: sv.act, dy: dy, freeX: true, freeDY: true})
	// act = silu(g) ⊙ u
	dG := sc.Get(t, l.cfg.FFN)
	siluG := sc.GetRaw(t, l.cfg.FFN)
	dU := sc.Get(t, l.cfg.FFN)
	dActSilu := sc.GetRaw(t, l.cfg.FFN)
	tensor.Mul(dActSilu, dAct, sv.u)
	tensor.SiLUBackward(siluG, dG, dActSilu, sv.g)
	tensor.MulAdd(dU, dAct, siluG)
	sc.Put(siluG)
	sc.Put(dActSilu)
	sc.Put(dAct)
	sc.Put(sv.g)
	sc.Put(sv.u)
	dXn2 := sc.Get(t, h)
	sc.MatMulBT(dXn2, dG, l.Wg.W)
	sc.MatMulBT(dXn2, dU, l.Wu.W)
	tasks = append(tasks, WeightTask{lin: &l.Wg, x: sv.xn2, dy: dG, freeDY: true})
	tasks = append(tasks, WeightTask{lin: &l.Wu, x: sv.xn2, dy: dU, freeX: true, freeDY: true})
	tensor.RMSNormBackward(dXmid, l.DMLPNorm, dXn2, sv.xMid, l.MLPNorm, sv.inv2)
	sc.Put(dXn2)
	sc.Put(sv.xMid)
	sc.PutVec(sv.inv2)

	// Attention backward. xMid = xIn + Wo·ctx.
	dCtx := sc.Get(t, h)
	sc.MatMulBT(dCtx, dXmid, l.Wo.W)
	tasks = append(tasks, WeightTask{lin: &l.Wo, x: sv.ctx, dy: dXmid, freeX: true, freeDY: true})
	dQ := sc.GetRaw(t, h)
	// The slice attended to the cache as it stood at its forward pass —
	// exactly `cached` tokens — so the K/V views must be truncated even
	// though later slices have grown the cache since.
	cached := sv.probs[0].Cols
	scale := float32(1 / math.Sqrt(float64(hd)))
	dCtxh := sc.GetRaw(t, hd)
	kh := sc.GetRaw(cached, hd)
	vh := sc.GetRaw(cached, hd)
	qh := sc.GetRaw(t, hd)
	dVh := sc.Get(cached, hd)
	dKh := sc.Get(cached, hd)
	dQh := sc.Get(t, hd)
	for hI := 0; hI < nh; hI++ {
		gatherHead(dCtxh, dCtx.Data, t, h, hI, hd)
		probs := sv.probs[hI]
		gatherHead(kh, st.K.Data, cached, h, hI, hd)
		gatherHead(vh, st.V.Data, cached, h, hI, hd)
		// dV_cache += probsᵀ · dCtxh
		dVh.Zero()
		sc.MatMulAT(dVh, probs, dCtxh)
		addHead(st.dV, dVh, 0, hI, hd)
		// dProbs = dCtxh · Vᵀ, then softmax backward in place.
		dProbs := sc.Get(t, cached)
		sc.MatMulBT(dProbs, dCtxh, vh)
		tensor.SoftmaxBackwardCausal(dProbs, probs, sv.start)
		// dQ_h += dScores · K · scale; dK_cache += dScoresᵀ · Q · scale.
		dQh.Zero()
		sc.MatMul(dQh, dProbs, kh)
		dQh.Scale(scale)
		writeHead(dQ, dQh, hI, hd)
		gatherHead(qh, sv.q.Data, t, h, hI, hd)
		dKh.Zero()
		sc.MatMulAT(dKh, dProbs, qh)
		dKh.Scale(scale)
		addHead(st.dK, dKh, 0, hI, hd)
		sc.Put(dProbs)
		if sc != nil {
			// Recycling only: a nil arena means checkpoint snapshots may
			// share this save, and replay needs the probs intact.
			sc.Put(probs)
			sv.probs[hI] = nil
		}
	}
	sc.Put(dCtxh)
	sc.Put(kh)
	sc.Put(vh)
	sc.Put(qh)
	sc.Put(dVh)
	sc.Put(dKh)
	sc.Put(dQh)
	sc.Put(dCtx)
	sc.Put(sv.q)

	// The slice's own K/V rows now hold every contribution (this slice's
	// plus all later slices'); project them back.
	dKslice := sc.GetRaw(t, h)
	copyRows(dKslice, st.dK, sv.start)
	dVslice := sc.GetRaw(t, h)
	copyRows(dVslice, st.dV, sv.start)
	dXn1 := sc.Get(t, h)
	sc.MatMulBT(dXn1, dQ, l.Wq.W)
	sc.MatMulBT(dXn1, dKslice, l.Wk.W)
	sc.MatMulBT(dXn1, dVslice, l.Wv.W)
	tasks = append(tasks, WeightTask{lin: &l.Wq, x: sv.xn1, dy: dQ, freeDY: true})
	tasks = append(tasks, WeightTask{lin: &l.Wk, x: sv.xn1, dy: dKslice, freeDY: true})
	tasks = append(tasks, WeightTask{lin: &l.Wv, x: sv.xn1, dy: dVslice, freeX: true, freeDY: true})

	dX := sc.GetRaw(t, h)
	dX.CopyFrom(dXmid)
	tensor.RMSNormBackward(dX, l.DAttnNorm, dXn1, sv.xIn, l.AttnNorm, sv.inv1)
	sc.Put(dXn1)
	sc.Put(sv.xIn)
	sc.PutVec(sv.inv1)
	if sc != nil {
		// Recycling zeroes *sv, so skip it in scratch-free mode: the
		// resilient runtime's snapshots share save pointers and must be
		// able to replay from them.
		st.putSave(sv)
	}
	return dX, tasks
}

// WeightGradGEMMs is the per-layer fine-grained decomposition width
// (matching model.WeightGradGEMMsPerLayer).
const WeightGradGEMMs = 7
