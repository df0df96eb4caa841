package strategy

import (
	"context"
	"fmt"
	"math"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/memplan"
	"mepipe/internal/opt"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// Optimized is the outcome of OptimizeContext: one configuration's preset
// schedule annealed by the internal/opt local search under the
// configuration's own byte-accurate memory budget.
type Optimized struct {
	Sys System
	Par config.Parallel
	N   int // micro-batches per data-parallel group
	F   int // chosen SVPP variant (MEPipe only)

	// Opt carries the discovered schedule, its certificate and the
	// search statistics.
	Opt *opt.Result
}

// OptimizeContext resolves the configuration's preset schedule exactly like
// EvaluateContext (through Resolve) and then runs the internal/opt
// simulated-annealing search over certified reorderings of it. The memory
// budget enforced on every candidate is the plan's per-stage activation
// budget with the cost model's real activation and gradient footprints
// (see optimizeBudget), so a discovered schedule is proven to retain no
// more memory than the preset it replaces. The search evaluates
// candidates in the static execution model (no dynamic W draining): the
// discovered order is a complete static program per stage.
//
// Errors wrap errs.ErrIncompatible (shape), errs.ErrOOM (the
// configuration does not fit at all), errs.ErrUncertified (the preset's
// static placement exceeds the byte budget) or errs.ErrCancelled.
//
//mepipe:deterministic
func OptimizeContext(ctx context.Context, sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, oopt opt.Options, opts ...Option) (*Optimized, error) {
	p, err := Resolve(sys, m, cl, par, tr)
	if err != nil {
		return nil, err
	}
	if p.Unfit != nil {
		return nil, fmt.Errorf("strategy: optimizing %s %v: %w", sys, par, p.Unfit)
	}
	if oopt.Budget == nil {
		oopt.Budget, err = optimizeBudget(p.Schedule, p.Memory, p.Costs)
		if err != nil {
			return nil, fmt.Errorf("strategy: optimizing %s %v: %w", sys, par, err)
		}
	}
	if oopt.Trace == nil {
		oopt.Trace = buildOptions(opts).sink
	}
	res, err := opt.Optimize(ctx, p.Schedule, p.Costs, oopt)
	if err != nil {
		return nil, fmt.Errorf("strategy: optimizing %s %v: %w", sys, par, err)
	}
	return &Optimized{Sys: sys, Par: par, N: p.N, F: p.F, Opt: res}, nil
}

// optimizeBudget builds the memory budget the search enforces: the
// plan's per-stage activation budget with the cost model's real
// footprints, relaxed to the preset's own swept static peak where the
// preset exceeds the plan. A preset's static placement may legitimately
// retain more bytes than the plan budget in the split-backward window —
// at runtime the §5 dynamic engine drains deferred W under memory
// pressure, but the optimizer reasons about static orders — so the
// enforceable invariant is "never retain more than max(plan budget,
// preset's static retention)" per stage: the seed always certifies, and
// a discovered schedule is proven at least as memory-frugal as the
// preset it replaces.
func optimizeBudget(s *sched.Schedule, plan *memplan.Plan, costs *perf.Costs) (*verify.Budget, error) {
	unbounded := &verify.Budget{
		ActBudget:   make([]int64, s.P),
		FamilyBytes: costs.ActBytes,
		GradBytes:   costs.GradBytes,
	}
	for k := range unbounded.ActBudget {
		unbounded.ActBudget[k] = math.MaxInt64
	}
	cert, err := verify.Certify(s, verify.Options{Budget: unbounded})
	if err != nil {
		return nil, err
	}
	budget := verify.PlanBudget(plan, costs)
	caps := append([]int64(nil), budget.ActBudget...)
	for k := range caps {
		if k < len(cert.PeakBytes) && cert.PeakBytes[k] > caps[k] {
			caps[k] = cert.PeakBytes[k]
		}
	}
	budget.ActBudget = caps
	return budget, nil
}
