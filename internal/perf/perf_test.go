package perf

import (
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/sched"
)

func costs(t *testing.T, m config.Model, par config.Parallel) *Costs {
	t.Helper()
	cl := cluster.RTX4090Cluster(par.Devices() / 8)
	mesh, err := cluster.NewMesh(cl, par)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(m, mesh)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsUnevenPartition(t *testing.T) {
	m := config.Llama13B() // 40 units
	cl := cluster.RTX4090Cluster(8)
	mesh, err := cluster.NewMesh(cl, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(m, mesh); err == nil {
		t.Error("p=8 v=2 (16 chunks for 40 units) accepted")
	}
}

func TestSliceImbalanceAcrossSlices(t *testing.T) {
	// Later slices must cost more in F and BAct (causal attention) while
	// W stays constant — the §5 premise.
	c := costs(t, config.Llama13B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1})
	var prevF, prevB float64
	for i := 0; i < 4; i++ {
		f := c.OpTime(1, sched.Op{Kind: sched.F, Slice: i})
		b := c.OpTime(1, sched.Op{Kind: sched.BAct, Slice: i})
		if f <= prevF || b <= prevB {
			t.Fatalf("slice %d not monotonically more expensive (F %.4g, B %.4g)", i, f, b)
		}
		prevF, prevB = f, b
	}
	w0 := c.OpTime(1, sched.Op{Kind: sched.W, Slice: 0})
	w3 := c.OpTime(1, sched.Op{Kind: sched.W, Slice: 3})
	if w0 != w3 {
		t.Errorf("weight-gradient time differs across slices: %.4g vs %.4g", w0, w3)
	}
}

func TestFig7Ratio(t *testing.T) {
	// §5's working example: with s=2, the forward of slice 0 is roughly
	// 75% of slice 1 — attention is the only asymmetric part, so the
	// ratio is model-dependent but must lie strictly in (0.7, 1).
	c := costs(t, config.Llama13B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 2, VP: 1})
	f0 := c.OpTime(1, sched.Op{Kind: sched.F, Slice: 0})
	f1 := c.OpTime(1, sched.Op{Kind: sched.F, Slice: 1})
	if r := f0 / f1; r <= 0.7 || r >= 1.0 {
		t.Errorf("slice0/slice1 forward ratio %.3f, want in (0.7, 1.0)", r)
	}
}

func TestWPieceSumsToWholeW(t *testing.T) {
	c := costs(t, config.Llama13B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1})
	whole := c.OpTime(2, sched.Op{Kind: sched.W, Slice: 1})
	var sum float64
	for p := 0; p < c.WPieces(); p++ {
		sum += c.OpTime(2, sched.Op{Kind: sched.WPiece, Slice: 1, Piece: p})
	}
	if diff := sum - whole; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("WPiece sum %.6g != whole W %.6g", sum, whole)
	}
}

func TestHeadChargedOnLastChunkOnly(t *testing.T) {
	c := costs(t, config.Llama13B(), config.Parallel{PP: 4, DP: 16, CP: 1, SPP: 1, VP: 2})
	// Stage 3 chunk 1 is the last global chunk (round-robin). It hosts 4
	// transformer layers (the head displaces one) vs 5 on stage 2 chunk 1
	// — that is the balancing design, so the head chunk must cost more
	// than its bare 4 layers but stay close to a 5-layer chunk.
	head := c.OpTime(3, sched.Op{Kind: sched.F, Chunk: 1})
	mid := c.OpTime(2, sched.Op{Kind: sched.F, Chunk: 1})
	if head <= mid*4/5 {
		t.Errorf("head chunk F %.4g should exceed its 4 bare layers (%.4g)", head, mid*4/5)
	}
	if head > mid*1.5 {
		t.Errorf("head chunk F %.4g badly unbalanced vs mid chunk %.4g", head, mid)
	}
}

func TestWavePlacementReindex(t *testing.T) {
	par := config.Parallel{PP: 4, DP: 16, CP: 1, SPP: 1, VP: 2}
	c := costs(t, config.Llama13B(), par)
	c.WithPlacement(sched.Wave{P: 4})
	// Under the wave, the last global chunk (7) lives on stage 0 local 1.
	if !c.isHeadChunk(0, 1) {
		t.Error("wave: head chunk should be stage 0, local 1")
	}
	if c.isHeadChunk(3, 1) {
		t.Error("wave: stage 3 local 1 is not the head chunk")
	}
	// Layers must still cover the whole model.
	total := 0
	for s := range c.layers {
		for _, n := range c.layers[s] {
			total += n
		}
	}
	if total != 38 {
		t.Errorf("wave layers sum %d, want 38", total)
	}
}

func TestCPChargesCommunicationSPPDoesNot(t *testing.T) {
	// Fig 9 / Table 2: CP pays ring communication, SPP does not. At equal
	// slicing factor the per-token forward cost of CP must exceed SPP's.
	mCfg := config.Llama13B()
	spp := costs(t, mCfg, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1})
	cp := costs(t, mCfg, config.Parallel{PP: 8, DP: 2, CP: 4, SPP: 1, VP: 1})
	// SPP op covers seq/4 tokens; CP op covers seq/4 tokens per worker.
	// Average forward cost per token over one micro-batch:
	var sppTotal float64
	for i := 0; i < 4; i++ {
		sppTotal += spp.OpTime(1, sched.Op{Kind: sched.F, Slice: i})
	}
	cpTotal := cp.OpTime(1, sched.Op{Kind: sched.F})
	if cpTotal <= sppTotal/4 {
		t.Errorf("CP per-worker forward %.4g should exceed SPP per-slice %.4g", cpTotal, sppTotal/4)
	}
}

func TestCommTimeGrowsWithHiddenSize(t *testing.T) {
	small := costs(t, config.Llama7B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1})
	big := costs(t, config.Llama34B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1})
	if small.CommTime(0, 1, sched.Op{Kind: sched.F}) >= big.CommTime(0, 1, sched.Op{Kind: sched.F}) {
		t.Error("larger hidden size must cost more pipeline communication")
	}
}

func TestRecomputeTradesMemoryForTime(t *testing.T) {
	base := costs(t, config.Llama13B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1})
	rec := costs(t, config.Llama13B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1, Recompute: config.RecomputeFull})
	op := sched.Op{Kind: sched.B}
	if rec.OpTime(1, op) <= base.OpTime(1, op) {
		t.Error("recompute must slow the backward")
	}
	fop := sched.Op{Kind: sched.F}
	if rec.ActBytes(1, fop) >= base.ActBytes(1, fop)/5 {
		t.Errorf("recompute retains %d bytes vs %d; want ~10x reduction", rec.ActBytes(1, fop), base.ActBytes(1, fop))
	}
}

func TestTailTimePositiveAndDPDependent(t *testing.T) {
	dp8 := costs(t, config.Llama13B(), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1})
	if dp8.TailTime(0) <= 0 {
		t.Error("tail time must be positive")
	}
	cl16 := cluster.RTX4090Cluster(16)
	mesh, err := cluster.NewMesh(cl16, config.Parallel{PP: 8, DP: 16, CP: 1, SPP: 1, VP: 1})
	if err != nil {
		t.Fatal(err)
	}
	dp16, err := New(config.Llama13B(), mesh)
	if err != nil {
		t.Fatal(err)
	}
	if dp16.TailTime(0) <= dp8.TailTime(0) {
		t.Error("a larger DP group must pay more gradient synchronisation")
	}
}

// TestLayerThroughputDegradation pins the Fig 9 anchor end-to-end: the
// per-layer throughput (fwd+bwd) at SPP=8 sits within a few points of the
// paper's −12.6%, and the CP curve is strictly worse at every size.
func TestLayerThroughputDegradation(t *testing.T) {
	m := config.Llama13B()
	rel := func(factor int, useCP bool) float64 {
		par := config.Parallel{PP: 8, DP: 8, CP: 1, SPP: factor, VP: 1}
		if useCP {
			par = config.Parallel{PP: 8, DP: 8 / factor, CP: factor, SPP: 1, VP: 1}
		}
		c := costs(t, m, par)
		// Average layer time per token over a micro-batch.
		var tTotal float64
		if useCP || factor == 1 {
			op := sched.Op{Kind: sched.F}
			tTotal = c.layerForward(op) + c.layerActGrad(op) + c.layerWeightGrad(op) + c.cpRingTime(false) + c.cpRingTime(true)
		} else {
			for i := 0; i < factor; i++ {
				op := sched.Op{Kind: sched.F, Slice: i}
				tTotal += c.layerForward(op) + c.layerActGrad(op) + c.layerWeightGrad(op)
			}
		}
		return tTotal
	}
	base := rel(1, false)
	spp8 := rel(8, false)
	drop := 1 - base/spp8
	if drop < 0.08 || drop > 0.20 {
		t.Errorf("SPP=8 layer slowdown %.1f%%, want ≈ 12.6%% ± a few points", 100*drop)
	}
	// A CP op covers seq/cp tokens per worker while the SPP sum covers
	// the whole sequence; normalise to whole-sample cost before
	// comparing.
	for _, f := range []int{2, 4, 8} {
		if rel(f, true)*float64(f) <= rel(f, false) {
			t.Errorf("CP=%d should be slower than SPP=%d per token (Fig 9)", f, f)
		}
	}
}

// TestSlicePartitionCosts: a non-uniform partition must shift per-slice
// costs and memory to the declared widths, preserving totals.
func TestSlicePartitionCosts(t *testing.T) {
	m := config.Llama13B()
	par := config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}
	uni := costs(t, m, par)
	nonUni := costs(t, m, par)
	if _, err := nonUni.WithSlicePartition([]int{2048, 1024, 512, 512}); err != nil {
		t.Fatal(err)
	}
	// Slice 0 is wider, so costlier; slice 3 narrower, so cheaper.
	if nonUni.OpTime(1, sched.Op{Kind: sched.F, Slice: 0}) <= uni.OpTime(1, sched.Op{Kind: sched.F, Slice: 0}) {
		t.Error("wide slice 0 should cost more than uniform")
	}
	if nonUni.OpTime(1, sched.Op{Kind: sched.F, Slice: 3}) >= uni.OpTime(1, sched.Op{Kind: sched.F, Slice: 3}) {
		t.Error("narrow slice 3 should cost less than uniform")
	}
	// Activation memory follows the widths exactly.
	u0 := uni.ActBytes(1, sched.Op{Kind: sched.F, Slice: 0})
	n0 := nonUni.ActBytes(1, sched.Op{Kind: sched.F, Slice: 0})
	if n0 != 2*u0 {
		t.Errorf("slice 0 activations %d, want 2x uniform %d", n0, u0)
	}
	// Invalid partitions rejected.
	if _, err := nonUni.WithSlicePartition([]int{4096}); err == nil {
		t.Error("wrong slice count accepted")
	}
	if _, err := nonUni.WithSlicePartition([]int{4096, 0, 0, 0}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := nonUni.WithSlicePartition([]int{1024, 1024, 1024, 512}); err == nil {
		t.Error("wrong total accepted")
	}
}

// TestTPScalesComputeAndMemory: tensor parallelism must shrink per-worker
// GEMM time and parameters while adding all-reduce cost.
func TestTPScalesComputeAndMemory(t *testing.T) {
	m := config.Llama13B()
	base := costs(t, m, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1})
	cl16 := cluster.RTX4090Cluster(16)
	mesh, err := cluster.NewMesh(cl16, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1, TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := New(m, mesh)
	if err != nil {
		t.Fatal(err)
	}
	op := sched.Op{Kind: sched.W}
	// Weight gradients have no all-reduce, so TP=2 must halve-ish them.
	b, d := base.OpTime(1, op), tp2.OpTime(1, op)
	if r := d / b; r < 0.4 || r > 0.7 {
		t.Errorf("TP=2 weight-grad ratio %.2f, want ~0.5", r)
	}
	// Forward pays the all-reduce: on PCIe it should NOT halve.
	fb, fd := base.OpTime(1, sched.Op{Kind: sched.F}), tp2.OpTime(1, sched.Op{Kind: sched.F})
	if fd < 0.55*fb {
		t.Errorf("TP=2 forward on PCIe %.4f vs %.4f: all-reduce cost missing", fd, fb)
	}
	// Activations shrink but not fully by 2 (replicated residual path).
	ab, ad := base.ActBytes(1, sched.Op{Kind: sched.F}), tp2.ActBytes(1, sched.Op{Kind: sched.F})
	if !(ad < ab && ad > ab/2) {
		t.Errorf("TP=2 activations %d vs %d: want between 1/2 and 1x", ad, ab)
	}
	// TP must divide the head count.
	badMesh, err := cluster.NewMesh(cl16, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1, TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	badModel := m
	badModel.NumHeads = 5
	badModel.NumKVHeads = 5
	if _, err := New(badModel, badMesh); err == nil {
		t.Error("TP not dividing heads accepted")
	}
}

// TestSelectiveRecompute sits strictly between none and full in both
// memory and backward time.
func TestSelectiveRecompute(t *testing.T) {
	m := config.Llama13B()
	mk := func(mode config.RecomputeMode) *Costs {
		return costs(t, m, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1, Recompute: mode})
	}
	none, sel, full := mk(config.RecomputeNone), mk(config.RecomputeSelective), mk(config.RecomputeFull)
	fop := sched.Op{Kind: sched.F}
	bop := sched.Op{Kind: sched.B}
	an, as, af := none.ActBytes(1, fop), sel.ActBytes(1, fop), full.ActBytes(1, fop)
	if !(af < as && as < an) {
		t.Errorf("memory ordering broken: none %d, selective %d, full %d", an, as, af)
	}
	// Selective should roughly halve activations for Llama shapes
	// (3·ffn of the ~32h per-token elements).
	if r := float64(as) / float64(an); r < 0.4 || r > 0.6 {
		t.Errorf("selective keeps %.2f of activations, want ~0.5", r)
	}
	tn, ts, tf := none.OpTime(1, bop), sel.OpTime(1, bop), full.OpTime(1, bop)
	if !(tn < ts && ts < tf) {
		t.Errorf("backward-time ordering broken: none %v, selective %v, full %v", tn, ts, tf)
	}
	// Selective overhead must be mild (well under full's extra forward).
	if (ts-tn)/tn > 0.35 {
		t.Errorf("selective backward overhead %.1f%% too high", 100*(ts-tn)/tn)
	}
}

// TestOpTimeZeroAlloc: OpTime allocates nothing, with one attention span
// per op (SPP slices) and with two (CP chunks). The grid search and the
// simulator session query it for every op shape of every point.
func TestOpTimeZeroAlloc(t *testing.T) {
	for _, par := range []config.Parallel{
		{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1},
		{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1},
	} {
		c := costs(t, config.Llama13B(), par)
		kinds := []sched.Kind{sched.F, sched.B, sched.BAct, sched.W, sched.WPiece}
		allocs := testing.AllocsPerRun(100, func() {
			for _, k := range kinds {
				c.OpTime(3, sched.Op{Kind: k, Slice: par.SPP - 1})
			}
			c.CommTime(3, 4, sched.Op{Kind: sched.F})
		})
		if allocs != 0 {
			t.Errorf("%v: OpTime and CommTime allocate %.1f objects per round, want 0", par, allocs)
		}
	}
}
