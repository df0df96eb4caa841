package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"mepipe"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// Each optimize op anneals the checked-in artifact's best preset (P=4, V=1,
// S=2, N=6, unit costs, slot budget) for optIters rounds of optProposals
// candidates, with one of optSeeds seeded optimizer seeds. 80 rounds keep
// an op near 60 ms, so a run's time cap fits 250 timed ops. The optimizer
// seed changes how many proposals are feasible, and so an op's cost: 32
// seeds per run average that out better than 8, and each round still
// repeats some of them for the determinism check.
const (
	optIters     = 80
	optProposals = 4
	optSeeds     = 32
)

type optimize struct {
	preset *sched.Schedule
	costs  sim.UniformCosts
	budget *verify.Budget
	seeds  []int64
	// best is the first BestTime each optimizer seed gave: repeats of a
	// seed must reproduce it bit for bit.
	best map[int64]float64
	last *mepipe.OptimizeResult

	// Counters over traced replays.
	proposed, infeasible, evaluated, accepted int
}

func newOptimize(seed int64) (instance, error) {
	a, err := mepipe.DiscoveredArtifact()
	if err != nil {
		return nil, err
	}
	preset, err := a.PresetSchedule()
	if err != nil {
		return nil, err
	}
	o := &optimize{preset: preset, costs: a.Costs(), budget: a.Budget(), best: map[int64]float64{}}
	rng := rand.New(rand.NewSource(seed))
	for len(o.seeds) < optSeeds {
		o.seeds = append(o.seeds, rng.Int63())
	}
	return o, nil
}

func (o *optimize) run(i, workers int) (*mepipe.OptimizeResult, time.Duration, error) {
	seed := o.seeds[i%optSeeds]
	start := time.Now()
	res, err := mepipe.Optimize(context.Background(), o.preset, o.costs, mepipe.OptimizeOptions{
		Seed: seed, Iters: optIters, Proposals: optProposals, Workers: workers, Budget: o.budget,
	})
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	return res, d, o.check(seed, res)
}

func (o *optimize) op(i int) (time.Duration, error) {
	res, d, err := o.run(i, 0)
	if res != nil {
		o.last = res
	}
	return d, err
}

// check: the result re-certifies under the artifact's budget, is no slower
// than the preset, and a repeated seed gives a bitwise-equal BestTime.
func (o *optimize) check(seed int64, res *mepipe.OptimizeResult) error {
	if _, err := mepipe.CertifySchedule(res.Schedule, mepipe.CertifyOptions{Budget: o.budget}); err != nil {
		return fmt.Errorf("optimize: result does not re-certify: %w", err)
	}
	if res.BestTime > res.BaseTime {
		return fmt.Errorf("optimize: best time %v above the preset's %v", res.BestTime, res.BaseTime)
	}
	if prev, ok := o.best[seed]; ok && math.Float64bits(prev) != math.Float64bits(res.BestTime) {
		return fmt.Errorf("optimize: seed %d gave best time %v, earlier %v", seed, res.BestTime, prev)
	}
	o.best[seed] = res.BestTime
	return nil
}

// replay runs the same search on one worker: the result is the same by
// the optimizer's contract, and the call's time is the sequential cost
// the layer estimates below are compared with.
func (o *optimize) replay(i int, tr *tracer) error {
	return tr.request(func() error {
		return tr.span("opt.optimize", func() error {
			res, _, err := o.run(i, 1)
			if err == nil && tr != nil {
				o.proposed += res.Proposed
				o.infeasible += res.Infeasible
				o.evaluated += res.Evaluated
				o.accepted += res.Accepted
			}
			return err
		})
	})
}

// layers times the two calls the annealer makes per proposal, on
// proposals like its own (adjacent swaps of the discovered schedule's ops):
// a certification under the budget, which a proposal that breaks a
// dependency fails on the slower counterexample path, and, for proposals
// that pass, an incremental evaluation in a simulator session bound to the
// unmoved schedule. From the search's counters it estimates the share of
// the sequential search spent outside those two calls.
func (o *optimize) layers(tr *tracer, _ *traceTimes) (map[string]float64, error) {
	if o.last == nil {
		return nil, fmt.Errorf("optimize: no op returned a schedule to time proposals around")
	}
	feasible, infeasible := swapProposals(o.last.Schedule, o.budget)
	if len(feasible) == 0 || len(infeasible) == 0 {
		return nil, fmt.Errorf("optimize: no feasible and infeasible swaps to time")
	}
	certifyUs := func(ss []*sched.Schedule, want bool) (float64, error) {
		k := 0
		return timeCalls(func() error {
			k++
			_, err := verify.Certify(ss[k%len(ss)], verify.Options{Budget: o.budget, AssumeComplete: true})
			if (err == nil) != want {
				return fmt.Errorf("optimize: swap proposal certified %v on a second try", err == nil)
			}
			return nil
		})
	}
	certFeasible, err := certifyUs(feasible, true)
	if err != nil {
		return nil, err
	}
	certInfeasible, err := certifyUs(infeasible, false)
	if err != nil {
		return nil, err
	}
	sess, err := sim.NewSession(sim.Options{Sched: o.last.Schedule, Costs: o.costs, MakespanOnly: true})
	if err != nil {
		return nil, err
	}
	k := 0
	eval, err := timeCalls(func() error {
		k++
		_, err := sess.Eval(feasible[k%len(feasible)])
		return err
	})
	if err != nil {
		return nil, err
	}
	if o.proposed == 0 {
		return nil, fmt.Errorf("optimize: no traced replay succeeded")
	}
	n := float64(tr.requests)
	proposed, evaluated := float64(o.proposed)/n, float64(o.evaluated)/n
	infeasibleShare := float64(o.infeasible) / float64(o.proposed)
	certify := (1-infeasibleShare)*certFeasible + infeasibleShare*certInfeasible
	return map[string]float64{
		"verify.certify_us":    certify,
		"sim.session_eval_us":  eval,
		"opt.proposed":         proposed,
		"opt.evaluated":        evaluated,
		"opt.accept_ratio":     float64(o.accepted) / float64(o.proposed),
		"opt.infeasible_ratio": infeasibleShare,
		"opt.self_share_est":   1 - (proposed*certify+evaluated*eval)/us(tr.selfPerReq("opt.optimize")),
	}, nil
}

// swapProposals returns the schedules one adjacent swap away from s,
// split by whether they certify under the budget.
func swapProposals(s *sched.Schedule, budget *verify.Budget) (feasible, infeasible []*sched.Schedule) {
	for k, ops := range s.Stages {
		for j := 0; j+1 < len(ops); j++ {
			c := *s
			c.Stages = slices.Clone(s.Stages)
			c.Stages[k] = slices.Clone(ops)
			c.Stages[k][j], c.Stages[k][j+1] = c.Stages[k][j+1], c.Stages[k][j]
			if _, err := verify.Certify(&c, verify.Options{Budget: budget, AssumeComplete: true}); err != nil {
				infeasible = append(infeasible, &c)
			} else {
				feasible = append(feasible, &c)
			}
		}
	}
	return feasible, infeasible
}

// timeCalls returns fn's mean duration in µs over a fixed number of calls.
func timeCalls(fn func() error) (float64, error) {
	const calls = 2000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / calls, nil
}
