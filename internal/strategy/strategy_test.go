package strategy

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
)

var (
	m13  = config.Llama13B()
	cl64 = cluster.RTX4090Cluster(8)
)

func TestEvaluatePaperConfigs(t *testing.T) {
	// Table 5's GBS-64 row: every system at its reported optimum must be
	// feasible, and MEPipe must beat the others.
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	cases := []struct {
		sys System
		par config.Parallel
	}{
		{DAPPLE, config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1}},
		{VPP, config.Parallel{PP: 4, DP: 16, CP: 1, SPP: 1, VP: 2, Recompute: config.RecomputeFull}},
		{ZB, config.Parallel{PP: 8, DP: 2, CP: 4, SPP: 1, VP: 1}},
		{ZBV, config.Parallel{PP: 4, DP: 2, CP: 8, SPP: 1, VP: 2}},
		{MEPipe, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}},
	}
	var mepipe, bestOther float64
	for _, c := range cases {
		ev, err := Evaluate(c.sys, m13, cl64, c.par, tr)
		if err != nil {
			t.Fatalf("%s %v: %v", c.sys, c.par, err)
		}
		if ev.OOM {
			t.Fatalf("%s %v unexpectedly OOM: %s", c.sys, c.par, ev.OOMWhy)
		}
		if ev.IterTime <= 0 || ev.Bubble < 0 || ev.Bubble >= 1 {
			t.Fatalf("%s: implausible result %+v", c.sys, ev)
		}
		if c.sys == MEPipe {
			mepipe = ev.IterTime
		} else if bestOther == 0 || ev.IterTime < bestOther {
			bestOther = ev.IterTime
		}
	}
	if mepipe >= bestOther {
		t.Errorf("MEPipe %.0f ms not faster than best baseline %.0f ms", mepipe*1e3, bestOther*1e3)
	}
	// Fig 8's GBS-64 headline: ≈1.49× over the best baseline; accept a
	// generous band since this is a simulation.
	if sp := bestOther / mepipe; sp < 1.2 || sp > 1.9 {
		t.Errorf("speedup %.2fx out of the Fig 8 band (paper: 1.49x)", sp)
	}
}

func TestEvaluateRejectsIncompatible(t *testing.T) {
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	bad := []struct {
		sys System
		par config.Parallel
	}{
		{DAPPLE, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}},                              // slices
		{VPP, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1}},                                 // vp=1
		{ZB, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1, Recompute: config.RecomputeFull}}, // recompute
		{MEPipe, config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1}},                              // CP
		{TeraPipe, config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1}},                            // CP
		{GPipe, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 2}},                               // vp
	}
	for _, c := range bad {
		if _, err := Evaluate(c.sys, m13, cl64, c.par, tr); err == nil {
			t.Errorf("%s %v: expected incompatibility error", c.sys, c.par)
		}
	}
}

func TestEvaluateReportsStaticOOM(t *testing.T) {
	// Llama 34B at PP=8: static memory alone exceeds the 24 GB card.
	tr := config.Training{GlobalBatch: 128, MicroBatch: 1}
	ev, err := Evaluate(DAPPLE, config.Llama34B(), cl64, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.OOM {
		t.Error("34B at PP=8 should be OOM")
	}
}

func TestSearchMEPipeMatchesTable5(t *testing.T) {
	// Table 5: MEPipe's optimum at GBS 64 is (PP=8, SPP=4, VP=1).
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	res, err := Search(MEPipe, m13, cl64, tr, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no feasible MEPipe candidate")
	}
	if best.Par.PP != 8 || best.Par.SPP != 4 || best.Par.VP != 1 {
		t.Errorf("best MEPipe config %v, paper reports (PP=8, SPP=4, VP=1)", best.Par)
	}
	// Candidates must be sorted feasible-first by time.
	for i := 1; i < len(res.Candidates); i++ {
		a, b := res.Candidates[i-1], res.Candidates[i]
		if a.OOM && !b.OOM {
			t.Fatal("OOM candidate sorted before a feasible one")
		}
		if !a.OOM && !b.OOM && a.IterTime > b.IterTime {
			t.Fatal("candidates not sorted by iteration time")
		}
	}
}

func TestSearchRespectsMinDP(t *testing.T) {
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	res, err := Search(DAPPLE, m13, cl64, tr, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Par.DP < 2 {
			t.Fatalf("candidate %v violates the DP >= 2 constraint", c.Par)
		}
	}
}

func TestTFLOPSAndMFU(t *testing.T) {
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	ev, err := Evaluate(MEPipe, m13, cl64, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tf := ev.TFLOPSPerGPU(m13, tr, cl64.GPUs())
	if tf < 50 || tf > 140 {
		t.Errorf("TFLOPS/GPU %.1f out of plausible range", tf)
	}
	mfu := ev.MFU(m13, tr, cl64)
	if mfu < 0.15 || mfu > 0.45 {
		t.Errorf("MFU %.2f out of plausible range (paper: 0.35 at GBS 128)", mfu)
	}
	oom := &Eval{OOM: true}
	if oom.TFLOPSPerGPU(m13, tr, 64) != 0 {
		t.Error("OOM result must report zero TFLOPS")
	}
}

func TestSystemStrings(t *testing.T) {
	want := map[System]string{
		DAPPLE: "DAPPLE", VPP: "VPP", ZB: "ZB", ZBV: "ZBV",
		MEPipe: "MEPipe", TeraPipe: "TeraPipe", GPipe: "GPipe",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
	if System(99).String() != "System(99)" {
		t.Error("unknown system string")
	}
}

// TestPrunedSearchSameBest: the work bound must never change the search
// outcome, only skip work (§9's cost-model-assisted search). The last row
// is the one the Table 3 bubble bound this replaced got wrong: it
// overestimated the winner's time (844.36 ms) and the pruned search
// returned PP=8 DP=8 SPP=4 VP=2 at 805.55 ms.
func TestPrunedSearchSameBest(t *testing.T) {
	gbs64 := config.Training{GlobalBatch: 64, MicroBatch: 1}
	rows := []struct {
		sys  System
		m    config.Model
		cl   cluster.Cluster
		best config.Parallel // zero: not pinned
		iter float64
	}{
		{sys: DAPPLE, m: m13, cl: cl64},
		{sys: MEPipe, m: m13, cl: cl64},
		{MEPipe, config.Llama7B(), cluster.A100Cluster(8), config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 1, VP: 2}, 0.79317},
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/%s/%dxGPU", r.sys, r.m.Name, r.cl.GPUs())
		full, err := Search(r.sys, r.m, r.cl, gbs64, DefaultSpace())
		if err != nil {
			t.Fatal(err)
		}
		sp := DefaultSpace()
		sp.Prune = true
		pruned, err := Search(r.sys, r.m, r.cl, gbs64, sp)
		if err != nil {
			t.Fatal(err)
		}
		fb, pb := full.Best(), pruned.Best()
		if fb == nil || pb == nil {
			t.Fatalf("%s: missing best (full %v, pruned %v)", name, fb, pb)
		}
		if !reflect.DeepEqual(pb, fb) {
			t.Errorf("%s: pruned best %v at %v s != full best %v at %v s", name, pb.Par, pb.IterTime, fb.Par, fb.IterTime)
		}
		if r.iter != 0 && (fb.Par != r.best || math.Abs(fb.IterTime-r.iter) > 5e-6) {
			t.Errorf("%s: best %v at %.5f s, want %v at %.5f s", name, fb.Par, fb.IterTime, r.best, r.iter)
		}
		if pruned.Pruned == 0 {
			t.Errorf("%s: pruning skipped nothing (evaluated %d)", name, pruned.Evaluated)
		}
		if pruned.Evaluated+pruned.Pruned < full.Evaluated || pruned.Evaluated > full.Evaluated {
			t.Errorf("%s: pruned search lists %d and prunes %d of the full search's %d",
				name, pruned.Evaluated, pruned.Pruned, full.Evaluated)
		}
	}
}

// TestEvaluateOtherSystems exercises the GPipe/TeraPipe paths (they are
// searchable baselines even though the paper's figures omit them).
func TestEvaluateOtherSystems(t *testing.T) {
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	gp, err := Evaluate(GPipe, m13, cl64, config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := Evaluate(TeraPipe, m13, cl64, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// TeraPipe schedules all forwards before the first backward, so every
	// stage retains n/p·A of activations *regardless of the slice count*
	// (Fig 1's critique) — Llama 13B at GBS 64 cannot fit on 24 GB cards.
	if !tp.OOM {
		t.Error("TeraPipe should exhaust activation memory at 13B GBS 64")
	}
	// GPipe retains all n micro-batches too — the reason 1F1B exists.
	if !gp.OOM {
		t.Errorf("GPipe at n=%d should exhaust activation memory", gp.N)
	}
	// MEPipe at the same slicing interleaves backwards and fits — the
	// SVPP-vs-TeraPipe contrast, end to end.
	me, err := Evaluate(MEPipe, m13, cl64, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if me.OOM {
		t.Fatalf("MEPipe at the same slicing should fit: %s", me.OOMWhy)
	}
}

// TestTPStrategyEndToEnd: tensor parallelism through the full Evaluate path.
func TestTPStrategyEndToEnd(t *testing.T) {
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	ev, err := Evaluate(DAPPLE, m13, cl64, config.Parallel{PP: 8, DP: 4, CP: 1, SPP: 1, VP: 1, TP: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.OOM {
		t.Fatalf("TP=2 shards activations; should fit: %s", ev.OOMWhy)
	}
	base, err := Evaluate(DAPPLE, m13, cl64, config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// On PCIe, TP=2 must lose to CP=2 at the same device count (§2.2).
	if ev.IterTime <= base.IterTime {
		t.Errorf("TP=2 (%.0f ms) should lose to CP=2 (%.0f ms) on PCIe", ev.IterTime*1e3, base.IterTime*1e3)
	}
}
