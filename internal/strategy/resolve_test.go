package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/opt"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// TestResolvePinned pins what EvaluateContext and OptimizeContext make of
// one resolved configuration per system, plus every way resolving can
// fail: a static OOM, a ChooseF OOM, a simulated OOM and two shape errors.
// Each Eval value was recorded before the two shared one resolver, so any
// drift in the compatibility, mesh, memory, cost, variant or schedule step
// shows up here bit for bit. The optimizer's values were re-recorded when
// a resolved MEPipe plan began to carry the §5 engine's order and the
// optimizer to enforce the plan's own budget: the simulated-OOM row's seed
// now overflows that budget where the engine does.
func TestResolvePinned(t *testing.T) {
	r4090, a100 := cluster.RTX4090Cluster(8), cluster.A100Cluster(4)
	gbs64 := config.Training{GlobalBatch: 64, MicroBatch: 1}
	gbs128 := config.Training{GlobalBatch: 128, MicroBatch: 1}
	m13, m34 := config.Llama13B(), config.Llama34B()
	type want struct {
		iter, bubble  uint64 // float bits
		peak, budget  int64
		n, f          int
		oom           bool
		why           string
		err, optErr   string // EvaluateContext's and OptimizeContext's error text
		sentinel      error
		optSentinel   error
		skipOptimizer bool
	}
	rows := []struct {
		name string
		sys  System
		m    config.Model
		cl   cluster.Cluster
		par  config.Parallel
		tr   config.Training
		want want
	}{
		{"DAPPLE", DAPPLE, m13, r4090, config.Parallel{PP: 8, DP: 4, CP: 2, SPP: 1, VP: 1}, gbs64,
			want{iter: 0x40150357c09006b2, bubble: 0x3fd2cbe13f653750, peak: 11817451520, budget: 15946563392, n: 16, skipOptimizer: true}},
		{"VPP", VPP, m13, r4090, config.Parallel{PP: 4, DP: 8, CP: 2, SPP: 1, VP: 2, Recompute: config.RecomputeSelective}, gbs64,
			want{iter: 0x40151c13a6de2886, bubble: 0x3fbf8c14e19296b8, peak: 8388608000, budget: 9602473792, n: 8, skipOptimizer: true}},
		{"ZB", ZB, m13, r4090, config.Parallel{PP: 8, DP: 2, CP: 4, SPP: 1, VP: 1}, gbs64,
			want{iter: 0x40186a5050ff7b0e, bubble: 0x3fc3a45707473b98, peak: 8687452160, budget: 14377893696, n: 32, skipOptimizer: true}},
		{"ZBV", ZBV, m13, r4090, config.Parallel{PP: 4, DP: 2, CP: 8, SPP: 1, VP: 2}, gbs64,
			want{iter: 0x40234d81fc663ac0, bubble: 0x3fba764ec5d9a1b0, peak: 7966556160, budget: 8054775616, n: 32, skipOptimizer: true}},
		{"MEPipe Table 5", MEPipe, m13, r4090, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, gbs64,
			want{iter: 0x400c299614617302, bubble: 0x3fbbf79b07f6bd20, peak: 15933112320, budget: 15988506432, n: 8, f: 11, skipOptimizer: true}},
		{"TeraPipe", TeraPipe, m13, a100, config.Parallel{PP: 4, DP: 8, CP: 1, SPP: 4, VP: 1}, gbs64,
			want{iter: 0x40089c4852cbe561, bubble: 0x3fba1b8043e634b8, peak: 54022635520, budget: 67452436096, n: 8, skipOptimizer: true}},
		{"GPipe", GPipe, m13, a100, config.Parallel{PP: 4, DP: 4, CP: 2, SPP: 1, VP: 1}, gbs64,
			want{iter: 0x400aa03da91d4e53, bubble: 0x3fc578457569fc08, peak: 54022635520, budget: 67410493056, n: 16, skipOptimizer: true}},
		{"static OOM (ExampleEvaluate)", DAPPLE, m13, r4090, config.Parallel{PP: 2, DP: 4, CP: 8, SPP: 1, VP: 1}, gbs64,
			want{n: 16, oom: true, why: "static memory exceeds device capacity",
				optErr:      "strategy: optimizing DAPPLE (PP=2, DP=4, CP/SPP=8, VP=1, recompute=x): static memory exceeds device capacity: out of memory",
				optSentinel: errs.ErrOOM}},
		{"static OOM (34B at PP=4)", MEPipe, m34, r4090, config.Parallel{PP: 4, DP: 16, CP: 1, SPP: 4, VP: 1}, gbs128,
			want{n: 8, oom: true, why: "static memory exceeds device capacity",
				optErr:      "strategy: optimizing MEPipe (PP=4, DP=16, CP/SPP=4, VP=1, recompute=x): static memory exceeds device capacity: out of memory",
				optSentinel: errs.ErrOOM}},
		{"ChooseF OOM", MEPipe, m34, r4090, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, gbs64,
			want{budget: 1951650304, n: 8, oom: true,
				why:         "memplan: budget 3671380480 fits only 1 forwards, below the v·s=4 minimum (§4.2): out of memory: out of memory",
				optErr:      "strategy: optimizing MEPipe (PP=8, DP=8, CP/SPP=4, VP=1, recompute=x): memplan: budget 3671380480 fits only 1 forwards, below the v·s=4 minimum (§4.2): out of memory: out of memory",
				optSentinel: errs.ErrOOM}},
		{"simulated OOM", MEPipe, m34, r4090, config.Parallel{PP: 16, DP: 4, CP: 1, SPP: 4, VP: 1}, gbs64,
			want{iter: 0x40221c1a892e437f, bubble: 0x3fc9002b70303f8c, peak: 16430137344, budget: 10256568832, n: 16, f: 19, oom: true,
				why:         "activations exceed budget on stage 1",
				optErr:      "strategy: optimizing MEPipe (PP=16, DP=4, CP/SPP=4, VP=1, recompute=x): opt: seed schedule does not certify: verify: MEPipe{p=16 v=1 s=4 n=16 split=true} stage 1: retention exceeds budget at op 14 (F[m3 s2 c0]): 15 live families, 10805575680 > budget 10256568832: out of memory",
				optSentinel: errs.ErrOOM}},
		{"incompatible", MEPipe, m13, r4090, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1, Recompute: config.RecomputeFull}, gbs64,
			want{err: "strategy: MEPipe uses SPP instead of CP and never recomputes: incompatible configuration", sentinel: errs.ErrIncompatible}},
		{"mesh mismatch", MEPipe, m13, r4090, config.Parallel{PP: 8, DP: 4, CP: 1, SPP: 4, VP: 1}, gbs64,
			want{err: "cluster: strategy (PP=8, DP=4, CP/SPP=4, VP=1, recompute=x) needs 32 GPUs, cluster has 64: incompatible configuration", sentinel: errs.ErrIncompatible}},
	}
	ctx := context.Background()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w := r.want
			ev, err := EvaluateContext(ctx, r.sys, r.m, r.cl, r.par, r.tr)
			if w.err != "" {
				if err == nil || err.Error() != w.err || !errors.Is(err, w.sentinel) {
					t.Fatalf("Evaluate error %v, want %q wrapping %v", err, w.err, w.sentinel)
				}
				// A shape error is the same error whichever entry point
				// resolves it.
				if _, oerr := OptimizeContext(ctx, r.sys, r.m, r.cl, r.par, r.tr, opt.Options{Iters: 1}); oerr == nil || oerr.Error() != w.err {
					t.Errorf("Optimize error %v, want %q", oerr, w.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(ev.IterTime); got != w.iter {
				t.Errorf("IterTime bits %#x, want %#x", got, w.iter)
			}
			if got := math.Float64bits(ev.Bubble); got != w.bubble {
				t.Errorf("Bubble bits %#x, want %#x", got, w.bubble)
			}
			if ev.PeakAct != w.peak || ev.Budget != w.budget || ev.N != w.n || ev.F != w.f {
				t.Errorf("peak/budget/n/f = %d/%d/%d/%d, want %d/%d/%d/%d",
					ev.PeakAct, ev.Budget, ev.N, ev.F, w.peak, w.budget, w.n, w.f)
			}
			if ev.OOM != w.oom || ev.OOMWhy != w.why {
				t.Errorf("OOM %v %q, want %v %q", ev.OOM, ev.OOMWhy, w.oom, w.why)
			}
			if w.skipOptimizer {
				return
			}
			_, oerr := OptimizeContext(ctx, r.sys, r.m, r.cl, r.par, r.tr, opt.Options{Iters: 1})
			if oerr == nil || oerr.Error() != w.optErr || !errors.Is(oerr, w.optSentinel) {
				t.Errorf("Optimize error %v, want %q wrapping %v", oerr, w.optErr, w.optSentinel)
			}
		})
	}

	// The optimizer starts from the same resolved configuration: its
	// counters and times at a short fixed-seed run are pinned too.
	o, err := OptimizeContext(ctx, MEPipe, m13, r4090, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, gbs64, opt.Options{Seed: 1, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	r := o.Opt
	if got, want := [5]int{r.Proposed, r.Infeasible, r.Evaluated, r.Accepted, r.Improved}, [5]int{80, 27, 53, 20, 0}; got != want {
		t.Errorf("proposed/infeasible/evaluated/accepted/improved = %v, want %v", got, want)
	}
	if o.N != 8 || o.F != 11 {
		t.Errorf("optimized n=%d f=%d, want n=8 f=11", o.N, o.F)
	}
	if got, want := [2]uint64{math.Float64bits(r.BaseTime), math.Float64bits(r.BestTime)}, [2]uint64{0x400817ba00633a1e, 0x400817ba00633a1e}; got != want {
		t.Errorf("base/best time bits %#x, want %#x", got, want)
	}
}

// TestSimulateRejectsCycle: a resolved MEPipe plan whose stage 0 runs a
// family's activation backward before its forward deadlocks. The session
// refuses it before the engine runs, so a traced run emits nothing, and
// Simulate reports Certify's minimal cycle in the words it always has.
func TestSimulateRejectsCycle(t *testing.T) {
	tr := config.Training{GlobalBatch: 16, MicroBatch: 1}
	p, err := Resolve(MEPipe, config.Llama7B(), cluster.RTX4090Cluster(1), config.Parallel{PP: 4, DP: 2, CP: 1, SPP: 2, VP: 1}, tr)
	if err != nil || p.Unfit != nil {
		t.Fatalf("resolve: %v, unfit %v", err, p.Unfit)
	}
	ops := p.Schedule.Stages[0]
	f := ops[0]
	if f.Kind != sched.F {
		t.Fatalf("stage 0 opens with %v, want a forward", f)
	}
	b := slices.Index(ops, sched.Op{Kind: sched.BAct, Micro: f.Micro, Chunk: f.Chunk, Slice: f.Slice})
	if b < 0 {
		t.Fatalf("stage 0 has no activation backward of %v", f)
	}
	ops[0], ops[b] = ops[b], ops[0]

	_, certErr := verify.Certify(p.Schedule, verify.Options{})
	var cycle *verify.CycleError
	if !errors.As(certErr, &cycle) {
		t.Fatalf("Certify: %v, want a cycle", certErr)
	}
	rec := obs.NewRecorder()
	_, err = p.Simulate(context.Background(), WithSink(rec))
	if want := fmt.Sprintf("strategy: %s schedule rejected: %v", MEPipe, certErr); err == nil || err.Error() != want {
		t.Fatalf("Simulate: %v\nwant: %s", err, want)
	}
	if !errors.Is(err, errs.ErrUncertified) || !errors.As(err, &cycle) {
		t.Errorf("Simulate's error %v wraps neither errs.ErrUncertified nor a *verify.CycleError", err)
	}
	if n := rec.Len(); n != 0 {
		t.Errorf("the rejected run emitted %d events", n)
	}
}
