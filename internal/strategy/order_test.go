package strategy

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/opt"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// TestResolvedOrderReplaysEval: a resolved MEPipe plan carries the
// iteration its search ranked. Over the plan-cold grid at GBS 32 and 64,
// a static sim.Run of Resolve's schedule, under the plan's budget and
// tail, equals EvaluateContext's dynamic Result (DeepEqual: every float
// compared with ==), and the schedule certifies under verify.PlanBudget
// exactly when that Result is not OOM. Before Resolve wrote the engine's
// order, the generated order certified for 2 of the 18 plans that fit.
func TestResolvedOrderReplaysEval(t *testing.T) {
	m, cl, _, sp := planColdPoint()
	ctx := context.Background()
	var plans, fit int
	for _, gbs := range []int{32, 64} {
		tr := config.Training{GlobalBatch: gbs, MicroBatch: 1}
		for _, par := range enumerate(MEPipe, cl.GPUs(), tr, sp) {
			p, err := Resolve(MEPipe, m, cl, par, tr)
			if errors.Is(err, errs.ErrIncompatible) {
				continue
			}
			if err != nil {
				t.Fatalf("GBS %d %v: %v", gbs, par, err)
			}
			if p.Unfit != nil {
				continue
			}
			ev, err := EvaluateContext(ctx, MEPipe, m, cl, par, tr)
			if err != nil {
				t.Fatalf("GBS %d %v: %v", gbs, par, err)
			}
			res, err := sim.Run(sim.Options{
				Sched: p.Schedule, Costs: p.Costs,
				ActBudget: p.Memory.ActBudget, TailTime: p.Costs.TailTime,
			})
			if err != nil {
				t.Fatalf("GBS %d %v: static run: %v", gbs, par, err)
			}
			if !reflect.DeepEqual(res, ev.Result) {
				t.Errorf("GBS %d %v: static run of the plan's schedule %+v, Eval %+v", gbs, par, *res, *ev.Result)
			}
			_, cerr := verify.Certify(p.Schedule, verify.Options{Budget: verify.PlanBudget(p.Memory, p.Costs)})
			if (cerr == nil) == ev.OOM {
				t.Errorf("GBS %d %v: Certify under PlanBudget: %v, Eval OOM %v", gbs, par, cerr, ev.OOM)
			}
			plans++
			if !ev.OOM {
				fit++
			}
		}
	}
	t.Logf("%d MEPipe plans fit statically, %d run within budget", plans, fit)
}

// TestOptimizeAcceptsWhatFits: the optimizer enforces the budget the
// search ranks under. For every system over the 13B × 32-GPU, GBS 64
// default space, past static memory, OptimizeContext succeeds exactly when
// EvaluateContext reports no OOM, and a failure wraps errs.ErrOOM. With a
// budget relaxed to the preset's static peak, it annealed 22 of the 26
// configurations the search marks OOM.
func TestOptimizeAcceptsWhatFits(t *testing.T) {
	m, cl, _, sp := planColdPoint()
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	ctx := context.Background()
	var points, fit int
	for _, sys := range Systems() {
		for _, par := range enumerate(sys, cl.GPUs(), tr, sp) {
			ev, err := EvaluateContext(ctx, sys, m, cl, par, tr)
			if errors.Is(err, errs.ErrIncompatible) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %v: %v", sys, par, err)
			}
			if ev.OOMWhy == staticWhy {
				continue
			}
			_, oerr := OptimizeContext(ctx, sys, m, cl, par, tr, opt.Options{Iters: 1})
			if ev.OOM {
				if !errors.Is(oerr, errs.ErrOOM) {
					t.Errorf("%s %v: the search marks it OOM (%s), Optimize returned %v", sys, par, ev.OOMWhy, oerr)
				}
			} else if oerr != nil {
				t.Errorf("%s %v: the search says it fits, Optimize returned %v", sys, par, oerr)
			}
			points++
			if !ev.OOM {
				fit++
			}
		}
	}
	t.Logf("%d configurations past static memory, %d fit", points, fit)
}
