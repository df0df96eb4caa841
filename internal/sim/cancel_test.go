package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

func TestRunContextCancelled(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Options{Sched: s, Costs: Unit()}); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("RunContext = %v, want ErrCancelled", err)
	}
}

func TestRunWrapsIncompatible(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 2, V: 1, S: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Sched: s, Costs: Unit(), DynamicW: true}); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("DynamicW without split backward: %v, want ErrIncompatible", err)
	}
	if _, err := Run(Options{Sched: s, Costs: Unit(), ActBudget: []int64{1}}); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("short ActBudget: %v, want ErrIncompatible", err)
	}
}

// TestTraceMatchesResult: a recording's derived quantities agree with the
// simulator's own accounting: one op span per scheduled op, the spans'
// busy time the stage's compute time, and, tails included, the makespan
// IterTime bit for bit and the bubble the result's.
func TestTraceMatchesResult(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 4, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []func(int) float64{nil, func(k int) float64 { return 1.5 * float64(4-k) }} {
		rec := obs.NewRecorder()
		res, err := Run(Options{Sched: s, Costs: Unit(), Trace: rec, TailTime: tail})
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		if tr.Stages != len(res.Stages) {
			t.Errorf("tail=%v: recorded %d stages, result %d", tail != nil, tr.Stages, len(res.Stages))
		}
		if math.Float64bits(tr.Makespan) != math.Float64bits(res.IterTime) || math.Abs(tr.Bubble-res.BubbleRatio) > 1e-12 {
			t.Errorf("tail=%v: recorded (%g, %g) != result (%g, %g)",
				tail != nil, tr.Makespan, tr.Bubble, res.IterTime, res.BubbleRatio)
		}
		for k := 0; k < tr.Stages; k++ {
			spans := tr.OpSpans(k)
			if len(spans) != len(s.Stages[k]) {
				t.Fatalf("stage %d: %d recorded op spans, %d scheduled ops", k, len(spans), len(s.Stages[k]))
			}
			busy := 0.0
			for _, sp := range spans {
				busy += sp.Dur()
			}
			if math.Abs(busy-res.Stages[k].ComputeTime) > 1e-9 {
				t.Errorf("stage %d: recorded busy %v, compute time %v", k, busy, res.Stages[k].ComputeTime)
			}
		}
	}
}
