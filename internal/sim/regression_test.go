package sim

import (
	"context"
	"testing"

	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

type nopSink struct{}

func (nopSink) Emit(obs.Event) {}

// hugeFCosts charges one designated forward an enormous activation so its
// admission overshoots any budget by more than the W queue can drain.
type hugeFCosts struct {
	sched.UniformEst
	huge sched.Op
}

func (c hugeFCosts) ActBytes(k int, f sched.Op) int64 {
	if k == 0 && f == c.huge {
		return 1000
	}
	return 2
}

func (c hugeFCosts) GradBytes(int, sched.Op) int64 { return 1 }

// MicroInvariantCosts withdraws the promise the embedded UniformEst makes:
// the huge forward's bytes depend on its micro-batch, so the session must
// query every op rather than copy micro-0 twins (see sched.MicroInvariant).
func (hugeFCosts) MicroInvariantCosts() bool { return false }

// TestDynamicOOMUncoverableOvershoot is the satellite-1 regression: when an
// admission overshoots the budget by more than draining every queued W
// could free, the run must flag OOM at the admitting op — without first
// serially draining the queue into a distorted timeline. The old code
// under-reported this state by draining the (futile) queue, so the queued
// W ran before the overshooting op; now it must run after.
func TestDynamicOOMUncoverableOvershoot(t *testing.T) {
	s, err := sched.MEPipe(2, 1, 2, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := func(kind sched.Kind, m, sl int) sched.Op {
		return sched.Op{Kind: kind, Micro: m, Slice: sl}
	}
	// Hand-ordered stage 0: one family's BAct completes (queueing its W),
	// then two forwards run back-to-back with no stall the W could fill.
	// The second forward is the huge one.
	s.Stages[0] = []sched.Op{
		op(sched.F, 0, 0), op(sched.F, 0, 1),
		op(sched.BAct, 0, 1),
		op(sched.F, 1, 0), op(sched.F, 1, 1),
		op(sched.BAct, 0, 0), op(sched.BAct, 1, 1), op(sched.BAct, 1, 0),
		op(sched.W, 0, 1), op(sched.W, 0, 0), op(sched.W, 1, 1), op(sched.W, 1, 0),
	}
	if _, err := verify.Certify(s, verify.Options{}); err != nil {
		t.Fatalf("hand-ordered schedule invalid: %v", err)
	}
	huge := op(sched.F, 1, 1)
	costs := hugeFCosts{
		// W far longer than any gap, so gap-filling never drains it.
		UniformEst: sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 50, Comm: 0.2},
		huge:       huge,
	}
	res, tr := runTraced(t, Options{
		Sched: s, Costs: costs, DynamicW: true,
		ActBudget: []int64{50, 1 << 40},
	})
	if !res.OOM || res.OOMStage != 0 {
		t.Fatalf("uncoverable overshoot not flagged: OOM=%v stage=%d", res.OOM, res.OOMStage)
	}
	// The regression proper: the W queued before the huge admission (its
	// BAct finished earlier) must NOT have been futilely drained first.
	var hugeStart float64
	foundHuge := false
	spans := tr.OpSpans(0)
	for _, sp := range spans {
		if sp.Op == huge {
			hugeStart, foundHuge = sp.Start, true
		}
	}
	if !foundHuge {
		t.Fatal("huge forward did not execute")
	}
	queuedW := op(sched.W, 0, 1)
	sawQueued := false
	for _, sp := range spans {
		if sp.Op.Kind != sched.W {
			continue
		}
		if sp.Op == queuedW {
			sawQueued = true
			if sp.Start < hugeStart {
				t.Fatalf("queued W drained before the uncoverable admission (W start %v < F start %v)", sp.Start, hugeStart)
			}
		}
	}
	if !sawQueued {
		t.Fatal("expected W(0,1) to execute")
	}
	// Coverable overshoots must still drain rather than flag: same run
	// with a budget the queue CAN cover stays healthy.
	resOK, err := Run(Options{
		Sched: s, Costs: hugeFCosts{UniformEst: costs.UniformEst, huge: sched.Op{Kind: sched.F, Micro: -1}},
		DynamicW: true, ActBudget: []int64{8, 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resOK.OOM {
		t.Fatalf("coverable pressure wrongly flagged OOM at stage %d", resOK.OOMStage)
	}
}

// TestTraceWaitReusesDepScratch bounds what tracing costs in allocations:
// the session walks its dense dependency rows to emit comm and stall
// events, so a traced run (with a no-op sink) may allocate only a small
// fraction of the op count more than an untraced one — per-op allocation
// in the traced path would make the overhead scale 1:1 with ops.
func TestTraceWaitReusesDepScratch(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 6, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for k := range s.Stages {
		n += len(s.Stages[k])
	}
	base := testing.AllocsPerRun(10, func() {
		if _, err := Run(Options{Sched: s, Costs: Unit()}); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(10, func() {
		if _, err := RunContext(context.Background(), Options{Sched: s, Costs: Unit(), Trace: nopSink{}}); err != nil {
			t.Fatal(err)
		}
	})
	if over := traced - base; over > float64(n)/4 {
		t.Fatalf("tracing allocates %.0f extra times for %d ops (untraced %.0f); dep scratch is not being reused", over, n, base)
	}
}
