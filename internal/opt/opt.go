// Package opt discovers pipeline schedules that beat the presets. It
// treats scheduling as local search over the op DAG (OptPipe's framing,
// see PAPERS.md): starting from the best preset, it runs seeded,
// deterministic simulated annealing over certified op reorderings. Three
// neighbourhood operators (swap adjacent ops on a stage, shift an op
// across a slot boundary, rebalance weight-gradient placement) generate
// candidates; the certifier is the feasibility oracle (a verify.Delta
// re-checks each move's window against the certified current state) and
// the discrete-event simulator the cost oracle, so every accepted candidate
// is provably deadlock-free and within the memory budget by
// construction, and infeasible candidates are rejected before a single
// simulated op runs.
//
// Determinism is load-bearing: the entire random stream (operator
// choice, positions, Metropolis draws) lives on the coordinator's seeded
// generator, and workers do pure evaluation only — so a (schedule, costs,
// Options) triple always discovers byte-identical schedules, regardless
// of Workers or machine. CI pins this (see internal/opt tests and
// docs/OPTIMIZER.md).
package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// Options configures one Optimize run. The zero value selects sensible
// defaults for every field.
type Options struct {
	// Seed drives the proposal and acceptance stream. Two runs with the
	// same seed, schedule, costs and options discover identical
	// schedules.
	Seed int64

	// Iters is the number of annealing rounds (default 1500). Each
	// round proposes Proposals candidates and accepts at most one.
	Iters int

	// Proposals is the number of candidates generated per round
	// (default 4). It is part of the deterministic search trajectory;
	// Workers is not.
	Proposals int

	// Workers bounds how many goroutines evaluate a round's candidates
	// (default Proposals). A run uses min(Workers, Proposals,
	// GOMAXPROCS) of them, started once per run, and only when a round's
	// work (schedule ops × Proposals) is large enough to pay for them;
	// smaller rounds run serially on the calling goroutine. It affects
	// wall-clock speed and Result.Workers only, never the discovered
	// schedule or the counters.
	Workers int

	// InitTemp is the initial Metropolis temperature. Zero selects
	// 2% of the seed schedule's iteration time, scaling acceptance to
	// the cost landscape.
	InitTemp float64

	// Cool is the geometric cooling factor applied each round
	// (default 0.995).
	Cool float64

	// MaxShift bounds how far the shift operator may displace an op
	// (default 8 positions).
	MaxShift int

	// Budget, when non-nil, is enforced on every candidate: proposals
	// whose static memory sweep exceeds it are rejected before
	// simulation.
	Budget *verify.Budget

	// Trace, when non-nil, receives one obs.EvMove event per proposal,
	// with Cause "<operator>/<outcome>".
	Trace obs.Sink
}

func (o *Options) setDefaults() {
	if o.Iters <= 0 {
		o.Iters = 1500
	}
	if o.Proposals <= 0 {
		o.Proposals = 4
	}
	if o.Workers <= 0 {
		o.Workers = o.Proposals
	}
	if o.Cool <= 0 || o.Cool >= 1 {
		o.Cool = 0.995
	}
	if o.MaxShift <= 0 {
		o.MaxShift = 8
	}
}

// Result reports what the search achieved.
type Result struct {
	// Schedule is the best discovered schedule; Cert is its full
	// (completeness included) certificate under the run's Budget.
	Schedule *sched.Schedule
	Cert     *verify.Certificate

	// BaseTime is the input schedule's simulated iteration time, where
	// the annealer starts; BestTime the discovered schedule's.
	BaseTime float64
	BestTime float64

	// Search counters: Proposed candidates total, Infeasible rejected
	// by certification before simulation, Evaluated simulated, Accepted
	// taken as the current state, Improved times a new global best was
	// found.
	Proposed   int
	Infeasible int
	Evaluated  int
	Accepted   int
	Improved   int

	// Workers is how many goroutines evaluated each round: 1 when the
	// rounds ran serially on the caller. Unlike the counters it may vary
	// with Options.Workers and GOMAXPROCS.
	Workers int
}

// Gain returns the fractional improvement over the input schedule.
func (r *Result) Gain() float64 {
	if r.BaseTime <= 0 {
		return 0
	}
	return (r.BaseTime - r.BestTime) / r.BaseTime
}

const eps = 1e-9

// Optimize anneals the schedule under the cost model. The input is not
// modified. Errors wrap errs.ErrIncompatible (nil/invalid inputs),
// errs.ErrUncertified (the input schedule itself fails certification
// under the budget), or errs.ErrCancelled (ctx cancelled mid-search).
//
//mepipe:deterministic
func Optimize(ctx context.Context, s *sched.Schedule, costs sim.Costs, opt Options) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("opt: nil schedule: %w", errs.ErrIncompatible)
	}
	if costs == nil {
		return nil, fmt.Errorf("opt: nil cost model: %w", errs.ErrIncompatible)
	}
	opt.setDefaults()

	// The input must certify before the search starts from it; every
	// later candidate only permutes one stage's op positions.
	if _, err := verify.Certify(s, verify.Options{Budget: opt.Budget}); err != nil {
		return nil, fmt.Errorf("opt: seed schedule does not certify: %w", err)
	}
	// Certify has just proved the seed complete and deadlock-free, so a
	// Validate at bind would prove nothing new.
	base, err := sim.Run(sim.Options{Sched: s, Costs: costs, AssumeValid: true})
	if err != nil {
		return nil, fmt.Errorf("opt: seed simulation: %w", err)
	}
	res := &Result{BaseTime: base.IterTime}

	cur := cloneSchedule(s)
	curTime := base.IterTime
	best := cloneSchedule(cur)
	bestTime := curTime

	if opt.InitTemp <= 0 {
		opt.InitTemp = 0.02 * curTime
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	temp := opt.InitTemp
	cands := make([]candidate, opt.Proposals)

	// A round's work grows with the schedule: small rounds run on the
	// calling goroutine, larger ones on a group of workers started once
	// for the run. Per-worker state below is sized to the workers that
	// actually run.
	workers := fanOut(numOps(s), opt.Proposals, opt.Workers, runtime.GOMAXPROCS(0))
	res.Workers = workers

	// Every candidate is a permutation of the seed's ops, so each worker
	// binds one incremental simulator session, which re-sorts only the
	// rank interval each move disturbs and re-solves the ops from the
	// first moved rank onward, each once, instead of replaying the whole
	// pipeline. Sessions affect wall-clock only: Eval is bitwise-identical
	// to a full sim.Run (the sim package's differential fuzzer gates
	// this), and the random stream above is drawn before evaluation, so
	// the search trajectory is untouched.
	sessions := make([]*sim.Session, workers)

	// Likewise every candidate is the current state with one stage
	// reordered, so each worker certifies it with a fork of one Delta
	// bound to the current state: a re-check of the moved window instead
	// of a full Certify, with the same verdict. The binding moves with the
	// current state, once per accepted round, by a Rebind over the
	// accepted move's window.
	deltas := make([]*verify.Delta, workers)
	deltas[0] = verify.NewDelta(opt.Budget)
	if err := deltas[0].Bind(cur); err != nil {
		return nil, fmt.Errorf("opt: binding the start schedule: %w", err)
	}
	for w := 1; w < len(deltas); w++ {
		deltas[w] = deltas[0].Fork()
	}

	g := startGroup(workers, func(w, i int) {
		evaluate(&cands[i], costs, deltas[w], &sessions[w])
	})
	defer g.stop()

	for round := 0; round < opt.Iters; round++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("opt: search %w after %d rounds: %v", errs.ErrCancelled, round, ctx.Err())
		}
		// All randomness is drawn here, before any evaluation, so the
		// trajectory cannot depend on worker timing.
		for i := range cands {
			cands[i] = propose(rng, cur, opt.MaxShift)
		}
		u := rng.Float64()

		g.round(len(cands))

		res.Proposed += len(cands)
		pick := -1
		for i := range cands {
			c := &cands[i]
			if !c.feasible {
				res.Infeasible++
				continue
			}
			res.Evaluated++
			if pick < 0 || c.time < cands[pick].time-eps {
				pick = i
			}
		}
		accepted := -1
		if pick >= 0 {
			c := &cands[pick]
			delta := c.time - curTime
			if delta < -eps || (temp > 0 && u < math.Exp(-delta/temp)) {
				cur, curTime = c.sched, c.time
				if err := deltas[0].Rebind(cur, c.stage); err != nil {
					// Unreachable: Check certified the candidate.
					return nil, fmt.Errorf("opt: accepted candidate failed to bind: %w", err)
				}
				res.Accepted++
				accepted = pick
				if curTime < bestTime-eps {
					best = cloneSchedule(cur)
					bestTime = curTime
					res.Improved++
				}
			}
		}
		if opt.Trace != nil {
			emitMoves(opt.Trace, cands, accepted)
		}
		temp *= opt.Cool
	}

	best.Name = s.Name + "+opt"
	cert, err := verify.Certify(best, verify.Options{Budget: opt.Budget})
	if err != nil {
		// Unreachable by construction — every accepted candidate was
		// certified — but a final full proof keeps the guarantee
		// independent of the search internals.
		return nil, fmt.Errorf("opt: discovered schedule failed final certification: %w", err)
	}
	res.Schedule = best
	res.Cert = cert
	res.BestTime = bestTime
	return res, nil
}

// evaluate certifies the candidate through the worker's Delta and, only
// if it certifies, simulates it through the worker's incremental session.
// Infeasible candidates never reach the simulator — the property the
// package tests pin.
func evaluate(c *candidate, costs sim.Costs, delta *verify.Delta, sess **sim.Session) {
	if err := delta.Check(c.sched, c.stage); err != nil {
		c.feasible = false
		return
	}
	r, err := evalSim(c.sched, costs, sess)
	if err != nil || r.OOM {
		c.feasible = false
		return
	}
	c.feasible = true
	c.time = r.IterTime
}

// evalSim runs the candidate's simulation via the worker's bound
// session, (re)binding it lazily on first use or when the candidate's
// shape diverges from the bound one (never in a normal run — every
// candidate permutes the same ops).
func evalSim(s *sched.Schedule, costs sim.Costs, sess **sim.Session) (*sim.Result, error) {
	if *sess != nil {
		r, err := (*sess).Eval(s)
		if err == nil || !errors.Is(err, errs.ErrIncompatible) {
			return r, err
		}
		*sess = nil
	}
	// Check has just certified the candidate, so a Validate at bind would
	// prove nothing new; the session still rejects an incomplete op table.
	se, err := sim.NewSession(sim.Options{Sched: s, Costs: costs, AssumeValid: true})
	if err != nil {
		return nil, err
	}
	*sess = se
	return se.Eval(s)
}

// emitMoves reports one EvMove per proposal; accepted marks which (if
// any) became the current state this round.
func emitMoves(sink obs.Sink, cands []candidate, accepted int) {
	for i := range cands {
		c := &cands[i]
		outcome := "reject"
		switch {
		case !c.feasible:
			outcome = "infeasible"
		case i == accepted:
			outcome = "accept"
		}
		sink.Emit(obs.Event{
			Kind: obs.EvMove, Stage: c.stage, From: c.stage, Op: c.op,
			Start: c.time, End: c.time, Cause: c.operator + "/" + outcome,
		})
	}
}

// numOps counts the schedule's ops across all stages.
func numOps(s *sched.Schedule) int {
	n := 0
	for _, ops := range s.Stages {
		n += len(ops)
	}
	return n
}

func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Stages = make([][]sched.Op, len(s.Stages))
	for k := range s.Stages {
		c.Stages[k] = append([]sched.Op(nil), s.Stages[k]...)
	}
	return &c
}
