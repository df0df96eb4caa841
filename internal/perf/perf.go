// Package perf turns a (model, cluster, parallel strategy) triple into the
// exact per-op costs the simulator and the schedule generator consume:
// compute durations from FLOP accounting divided by calibrated achievable
// throughput (hw.EffCurve), per-layer kernel-launch overheads, context-
// parallel ring-attention communication, pipeline point-to-point transfer
// delays, per-op activation/gradient footprints, and the end-of-iteration
// gradient synchronisation + optimizer tail. It is the reproduction's
// stand-in for MEPipe's profiler component (§6).
package perf

import (
	"fmt"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/model"
	"mepipe/internal/sched"
)

// Knobs are the calibration constants of the cost model. Defaults are tuned
// so end-to-end simulations land on the paper's measured anchors (116
// TFLOPS / 35% MFU for Llama 13B on 64 RTX 4090s, Fig 9's operator
// degradation, Table 9's A100 times).
type Knobs struct {
	// KernelsPerLayerF/B are kernel launches charged per transformer
	// layer per forward / backward-half pass.
	KernelsPerLayerF int
	KernelsPerLayerB int
	// CPOverlap is the fraction of context-parallel ring communication
	// hidden behind attention compute (Megatron overlaps the ring
	// exchange with per-chunk attention kernels).
	CPOverlap float64
	// RecomputeOverhead is the extra forward fraction recomputation adds
	// to each backward (§7.3 quotes 33% more compute ≈ one extra forward
	// of the roughly 3×-forward total).
	RecomputeOverhead float64
}

// DefaultKnobs returns the calibrated constants.
func DefaultKnobs() Knobs {
	return Knobs{
		KernelsPerLayerF:  12,
		KernelsPerLayerB:  20,
		CPOverlap:         0.3,
		RecomputeOverhead: 1.0,
	}
}

// Costs implements sched.Estimator and sim.Costs for one configuration.
type Costs struct {
	M    config.Model
	Mesh cluster.Mesh
	K    Knobs

	p, v, s int
	place   sched.Placement
	// layers[stage][chunk], indexed by the *placement's* local chunk
	layers [][]int
	// stageParams[stage] is the stage's parameter count
	// (model.StageParams), which every TailTime reads.
	stageParams []int64
	// tokens handled per compute call and per worker
	sliceTokens  int // tokens per SPP slice (seq when spp == 1)
	workerTokens int // tokens of one micro-batch owned by this worker (seq/cp)
	callTokens   int // tokens per GEMM kernel call (CP halves twice)
	// sliceWidths/sliceStarts describe the (possibly non-uniform) slice
	// partition; nil means uniform sliceTokens-wide slices.
	sliceWidths, sliceStarts []int

	recompute config.RecomputeMode
}

// New builds the cost model. The schedule shape is derived from the
// strategy: p = PP, v = VP, s = SPP.
func New(m config.Model, mesh cluster.Mesh) (*Costs, error) {
	par := mesh.Par
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !model.EvenPartition(m.NumLayers, par.PP, par.VP) {
		return nil, fmt.Errorf("perf: %s (%d layers + 2) does not split evenly into %d×%d chunks: %w", m.Name, m.NumLayers, par.PP, par.VP, errs.ErrIncompatible)
	}
	if m.SeqLen%(par.SPP*par.CP) != 0 {
		return nil, fmt.Errorf("perf: sequence %d not divisible by slice factor %d: %w", m.SeqLen, par.SPP*par.CP, errs.ErrIncompatible)
	}
	if tp := par.TPSize(); m.NumHeads%tp != 0 || m.FFNHidden%tp != 0 {
		return nil, fmt.Errorf("perf: tensor-parallel size %d does not divide %d heads / %d ffn: %w", tp, m.NumHeads, m.FFNHidden, errs.ErrIncompatible)
	}
	c := &Costs{
		M: m, Mesh: mesh, K: DefaultKnobs(),
		p: par.PP, v: par.VP, s: par.SPP,
		recompute:   par.Recompute,
		stageParams: model.StageParams(m, par.PP),
	}
	c.place = sched.RoundRobin{P: par.PP, V: par.VP}
	c.reindexLayers()
	c.workerTokens = m.SeqLen / par.CP
	c.sliceTokens = c.workerTokens / par.SPP
	c.callTokens = c.sliceTokens
	if par.CP > 1 {
		// Megatron CP assigns each worker two symmetric chunks of
		// seq/(2·cp) tokens, so kernels run at half the worker's
		// tokens per call.
		c.callTokens = c.workerTokens / 2
	}
	return c, nil
}

// WithSlicePartition replaces the uniform slice widths with an explicit
// partition (TeraPipe-style non-uniform slicing; see internal/partition).
// The widths must sum to the worker's tokens. It returns the receiver.
func (c *Costs) WithSlicePartition(widths []int) (*Costs, error) {
	if len(widths) != c.s {
		return nil, fmt.Errorf("perf: %d widths for %d slices", len(widths), c.s)
	}
	total, starts := 0, make([]int, len(widths))
	for i, w := range widths {
		if w <= 0 {
			return nil, fmt.Errorf("perf: non-positive slice width %d", w)
		}
		starts[i] = total
		total += w
	}
	if total != c.workerTokens {
		return nil, fmt.Errorf("perf: widths sum to %d, want %d", total, c.workerTokens)
	}
	c.sliceWidths = append([]int(nil), widths...)
	c.sliceStarts = starts
	return c, nil
}

// sliceShape returns the token width and absolute start of slice i.
func (c *Costs) sliceShape(i int) (width, start int) {
	if c.sliceWidths != nil {
		return c.sliceWidths[i], c.sliceStarts[i]
	}
	return c.sliceTokens, i * c.sliceTokens
}

// WithPlacement re-targets the cost model at a different chunk placement
// (e.g. the wave layout of Hanayo/ZBV) and returns the receiver.
func (c *Costs) WithPlacement(place sched.Placement) *Costs {
	c.place = place
	c.reindexLayers()
	return c
}

// reindexLayers maps per-global-chunk layer counts onto the placement's
// (stage, local chunk) coordinates. The rows are views of one array, which
// a re-placement clears and refills.
func (c *Costs) reindexLayers() {
	global := model.LayersPerGlobalChunk(c.M.NumLayers, c.p*c.v)
	if c.layers == nil {
		flat := make([]int, c.p*c.v)
		c.layers = make([][]int, c.p)
		for s := range c.layers {
			c.layers[s] = flat[s*c.v : (s+1)*c.v : (s+1)*c.v]
		}
	}
	for _, row := range c.layers {
		clear(row)
	}
	for g, n := range global {
		s, l := c.place.Host(g)
		c.layers[s][l] = n
	}
}

// dense returns the time to execute the given FLOPs at the calibrated
// throughput for kernels of t tokens.
func (c *Costs) dense(flops float64, t int) float64 {
	gpu := c.Mesh.C.GPU
	return flops / (gpu.MatmulFLOPS * c.Mesh.C.Eff.At(t))
}

// tp returns the tensor-parallel group size.
func (c *Costs) tp() float64 { return float64(c.Mesh.Par.TPSize()) }

// tpARTime returns the per-layer tensor-parallel synchronisation charge:
// Megatron inserts two all-reduces of the layer's activations per forward
// (after attention and after the MLP) and two per backward. This is the
// term that makes TP prohibitive on PCIe (§2.2) and affordable on NVLink.
func (c *Costs) tpARTime(tokens int) float64 {
	g := c.Mesh.Par.TPSize()
	if g <= 1 {
		return 0
	}
	bytes := int64(tokens) * int64(c.M.HiddenSize) * model.BytesFP16
	return 2 * cluster.AllReduceTime(c.Mesh.TPGroupLink(), g, bytes)
}

// attnSpans returns the (start, width) token spans of the attention work
// a forward op covers, and how many there are: one span per CP chunk
// (symmetric placement) or the single SPP slice span. A fixed array keeps
// OpTime allocation-free.
func (c *Costs) attnSpans(op sched.Op) (spans [2][2]int, n int) {
	cp := c.Mesh.Par.CP
	if cp > 1 {
		half := c.workerTokens / 2
		// Symmetric chunks w and 2cp−1−w; use the average worker
		// (w = cp/2) — the placement balances work across workers.
		w := cp / 2
		return [2][2]int{
			{w * half, half},
			{(2*cp - 1 - w) * half, half},
		}, 2
	}
	w, start := c.sliceShape(op.Slice)
	return [2][2]int{{start, w}}, 1
}

// gemmShape returns the tokens per GEMM kernel call and call count for op:
// one call covering the slice for SPP, two calls of workerTokens/2 for CP.
func (c *Costs) gemmShape(op sched.Op) (tokens int, calls float64) {
	if c.Mesh.Par.CP > 1 {
		return c.callTokens, 2
	}
	w, _ := c.sliceShape(op.Slice)
	return w, 1
}

// layerForward returns the forward time of one transformer layer for op.
func (c *Costs) layerForward(op sched.Op) float64 {
	t := 0.0
	tok, calls := c.gemmShape(op)
	gemms := (model.LayerProjFlops(c.M, tok) + model.LayerMLPFlops(c.M, tok)) / c.tp()
	t += c.dense(gemms, tok) * calls
	spans, n := c.attnSpans(op)
	for _, span := range spans[:n] {
		t += c.dense(model.LayerAttnScoreFlops(c.M, span[1], span[0])/c.tp(), span[1])
	}
	t += float64(c.K.KernelsPerLayerF) * c.Mesh.C.GPU.KernelOverhead
	t += c.tpARTime(int(float64(tok) * calls))
	return t
}

// layerActGrad returns the activation-gradient backward time of one layer.
func (c *Costs) layerActGrad(op sched.Op) float64 {
	t := 0.0
	tok, calls := c.gemmShape(op)
	gemms := (model.LayerProjFlops(c.M, tok) + model.LayerMLPFlops(c.M, tok)) / c.tp()
	t += c.dense(gemms, tok) * calls
	spans, n := c.attnSpans(op)
	for _, span := range spans[:n] {
		t += c.dense(2*model.LayerAttnScoreFlops(c.M, span[1], span[0])/c.tp(), span[1])
	}
	t += float64(c.K.KernelsPerLayerB) * c.Mesh.C.GPU.KernelOverhead
	t += c.tpARTime(int(float64(tok) * calls))
	return t
}

// layerWeightGrad returns the weight-gradient backward time of one layer
// for op's slice — GEMM-only, hence position-independent (§5).
func (c *Costs) layerWeightGrad(op sched.Op) float64 {
	tok, calls := c.gemmShape(op)
	gemms := model.LayerWeightGradFlops(c.M, tok) / c.tp()
	return c.dense(gemms, tok)*calls +
		float64(model.WeightGradGEMMsPerLayer)*c.Mesh.C.GPU.KernelOverhead
}

// recomputeTime returns the per-layer rebuild cost the backward pass pays
// under the active recomputation mode: a full forward replay, or just the
// two MLP up-projections for the selective variant.
func (c *Costs) recomputeTime(op sched.Op) float64 {
	switch c.recompute {
	case config.RecomputeFull:
		return c.K.RecomputeOverhead * c.layerForward(op)
	case config.RecomputeSelective:
		tok, calls := c.gemmShape(op)
		flops := 2.0 / 3.0 * model.LayerMLPFlops(c.M, tok) / c.tp()
		return c.dense(flops, tok) * calls
	}
	return 0
}

// cpRingTime returns the per-layer context-parallel communication charge:
// the ring exchange of K/V blocks (forward) or K/V plus their gradients
// (backward), after the overlap discount.
func (c *Costs) cpRingTime(backward bool) float64 {
	cp := c.Mesh.Par.CP
	if cp <= 1 {
		return 0
	}
	kvDim := c.M.HeadDim() * c.M.NumKVHeads
	bytes := int64(float64(cp-1) / float64(cp) * float64(c.M.SeqLen) * float64(2*kvDim) * model.BytesFP16)
	if backward {
		bytes *= 2
	}
	link := c.Mesh.CPGroupLink()
	raw := cluster.P2PTime(link, bytes) + float64(cp-1)*link.Latency
	return raw * (1 - c.K.CPOverlap)
}

// headTime returns the LM-head (+loss) time for the op's slice.
func (c *Costs) headTime(op sched.Op, backward bool) float64 {
	tok, _ := c.sliceShape(op.Slice)
	if c.Mesh.Par.CP > 1 {
		tok = c.workerTokens
	}
	f := model.HeadForwardFlops(c.M, tok)
	if backward {
		f = model.HeadBackwardFlops(c.M, tok)
	}
	gemmTok, _ := c.gemmShape(op)
	return c.dense(f/c.tp(), gemmTok)
}

// isHeadChunk reports whether (stage, chunk) hosts the LM head — the last
// global chunk under the active placement.
func (c *Costs) isHeadChunk(stage, chunk int) bool {
	return c.place.Global(stage, chunk) == c.p*c.v-1
}

// OpTime implements sched.Estimator.
func (c *Costs) OpTime(stage int, op sched.Op) float64 {
	nl := float64(c.layers[stage][op.Chunk])
	var t float64
	switch op.Kind {
	case sched.F:
		t = nl * (c.layerForward(op) + c.cpRingTime(false))
		if c.isHeadChunk(stage, op.Chunk) {
			t += c.headTime(op, false)
		}
	case sched.B:
		t = nl * (c.layerActGrad(op) + c.layerWeightGrad(op) + c.cpRingTime(true))
		if c.isHeadChunk(stage, op.Chunk) {
			t += c.headTime(op, true)
		}
		t += nl * c.recomputeTime(op)
	case sched.BAct:
		t = nl * (c.layerActGrad(op) + c.cpRingTime(true))
		if c.isHeadChunk(stage, op.Chunk) {
			t += c.headTime(op, true) / 2
		}
		t += nl * c.recomputeTime(op)
	case sched.W:
		t = nl * c.layerWeightGrad(op)
		if c.isHeadChunk(stage, op.Chunk) {
			t += c.headTime(op, true) / 2
		}
	case sched.WPiece:
		whole := nl * c.layerWeightGrad(op)
		if c.isHeadChunk(stage, op.Chunk) {
			whole += c.headTime(op, true) / 2
		}
		t = whole / float64(c.wPieces())
	}
	return t
}

// wPieces returns the fine-grained decomposition width used for WPiece ops.
func (c *Costs) wPieces() int { return model.WeightGradGEMMsPerLayer }

// WPieces exposes the decomposition width for schedule construction.
func (c *Costs) WPieces() int { return c.wPieces() }

// MicroInvariantCosts implements sched.MicroInvariant: every per-op query
// of this model (OpTime, CommTime, ActBytes, GradBytes, CommBytes) reads
// the op's kind, chunk, slice, and piece — never Op.Micro — so all
// micro-batches of a family cost the same, bitwise. Consumers may query
// the micro-0 twin and copy.
func (c *Costs) MicroInvariantCosts() bool { return true }

// CommTime implements sched.Estimator: the pipeline point-to-point delay of
// op's output from stage `from` to stage `to`.
func (c *Costs) CommTime(from, to int, op sched.Op) float64 {
	return cluster.P2PTime(c.Mesh.StageLink(from), c.CommBytes(from, to, op))
}

// CommBytes implements sim.BytesEstimator: the payload of op's output
// crossing from stage `from` to stage `to` (one slice's hidden states or
// gradients in fp16).
func (c *Costs) CommBytes(from, to int, op sched.Op) int64 {
	w, _ := c.sliceShape(op.Slice)
	return int64(w) * int64(c.M.HiddenSize) * model.BytesFP16
}

// ActBytes implements sim.Costs: activation bytes retained when op (a
// forward) completes.
func (c *Costs) ActBytes(stage int, op sched.Op) int64 {
	var per int64
	switch c.recompute {
	case config.RecomputeFull:
		per = model.RecomputeActivationBytesPerToken(c.M)
	case config.RecomputeSelective:
		per = model.SelectiveActivationBytesPerToken(c.M, c.Mesh.Par.TPSize())
	default:
		per = model.LayerActivationBytesPerTokenTP(c.M, c.Mesh.Par.TPSize())
	}
	w, _ := c.sliceShape(op.Slice)
	return int64(c.layers[stage][op.Chunk]) * int64(w) * per
}

// GradBytes implements sim.Costs: bytes retained from BAct until the
// family's weight gradients finish.
func (c *Costs) GradBytes(stage int, op sched.Op) int64 {
	w, _ := c.sliceShape(op.Slice)
	return int64(c.layers[stage][op.Chunk]) * int64(w) * model.ActGradBytesPerTokenTP(c.M, c.Mesh.Par.TPSize())
}

// TailTime returns the end-of-iteration cost per stage: ZeRO-1 gradient
// reduce-scatter + parameter all-gather over the stage's DP×CP group, plus
// a small optimizer-step charge.
func (c *Costs) TailTime(stage int) float64 {
	group := c.Mesh.Par.DP * c.Mesh.Par.CP
	params := c.stageParams[stage] / int64(c.Mesh.Par.TPSize())
	gradBytes := params * model.BytesFP16
	link := c.Mesh.DPGroupLink()
	t := cluster.ReduceScatterTime(link, group, gradBytes) +
		cluster.AllGatherTime(link, group, gradBytes)
	// Optimizer step: streaming 16 bytes/param of the local shard at an
	// assumed 800 GB/s effective memory bandwidth.
	shard := params / int64(group)
	t += float64(shard) * 16 / 800e9
	return t
}
