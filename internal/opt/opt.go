// Package opt discovers pipeline schedules that beat the presets. It
// treats scheduling as local search over the op DAG (OptPipe's framing,
// see PAPERS.md): starting from the best preset, it runs seeded,
// deterministic simulated annealing over certified op reorderings. Three
// neighbourhood operators (swap adjacent ops on a stage, shift an op
// across a slot boundary, rebalance weight-gradient placement) generate
// moves: one stage's window of positions in a new order. Each move is
// proved and evaluated once, as a sim.Overlay on the current state's
// session, which is bound with the budget's own footprints as its memory
// charges and the budget's caps as its ActBudget: the overlay re-sorts
// the window's rank interval (the deadlock verdict), re-sums the moved
// stage's retention (the budget verdict, the certifier's sweep of that
// stage) and re-solves only the ops downstream of the window, bitwise as
// a full simulation would. So every accepted candidate is provably
// deadlock-free and within the memory budget by construction, and
// infeasible candidates are rejected before a single simulated op is
// re-solved. The current state is the only full schedule; an accepted
// move is committed to it in place, and to its session from the overlay
// that evaluated it.
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
	cur := cloneSchedule(s)
	se := &sim.Session{}
	base, err := bind(se, cur, costs, opt.Budget)
	if err != nil {
		return nil, fmt.Errorf("opt: seed simulation: %w", err)
	}
	res := &Result{BaseTime: base.IterTime}
	curTime := base.IterTime
	best := cloneSchedule(cur)
	bestTime := curTime

	if opt.InitTemp <= 0 {
		opt.InitTemp = 0.02 * curTime
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	temp := opt.InitTemp
	cands := make([]candidate, opt.Proposals)

	// Every candidate is a move of the current state, so it is evaluated
	// as an overlay on the one bound session, one overlay per proposal
	// slot: the window's rank interval re-sorted (the deadlock verdict),
	// the moved stage's retention re-summed (the budget verdict), and the
	// ops downstream of the window re-solved into the slot's scratch,
	// bitwise as a full sim.Run would. The session moves with the current
	// state, once per accepted round, when the coordinator commits the
	// picked slot's overlay. The random stream above is drawn before
	// evaluation, so none of this touches the search trajectory.
	ovs := make([]*sim.Overlay, len(cands))
	for i := range ovs {
		if ovs[i], err = se.NewOverlay(); err != nil {
			return nil, fmt.Errorf("opt: binding the start schedule: %w", err)
		}
	}

	// A round's work grows with the schedule: small rounds run on the
	// calling goroutine, larger ones on a group of workers started once
	// for the run.
	workers := fanOut(numOps(s), opt.Proposals, opt.Workers, runtime.GOMAXPROCS(0))
	res.Workers = workers
	g := startGroup(workers, func(i int) {
		evaluate(&cands[i], curTime, ovs[i])
	})
	defer g.stop()

	for round := 0; round < opt.Iters; round++ {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("opt: search %w after %d rounds: %v", errs.ErrCancelled, round, ctx.Err())
		}
		// All randomness is drawn here, before any evaluation, so the
		// trajectory cannot depend on worker timing.
		for i := range cands {
			propose(rng, &cands[i], cur, opt.MaxShift)
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
				if err := commit(c, cur, ovs[pick]); err != nil {
					// Unreachable: the move was evaluated feasible.
					return nil, fmt.Errorf("opt: accepted move failed to commit: %w", err)
				}
				curTime = c.time
				res.Accepted++
				accepted = pick
				if curTime < bestTime-eps {
					copyStages(best, cur)
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

// charged is a cost model whose memory charges are a budget's footprints
// (verify.Budget.Charges): bound to a session with the budget's caps as
// its ActBudget, its static memory accounting is the certifier's budget
// sweep. Durations and delays are the embedded model's, and no time reads
// a footprint, so every simulated time is the model's own.
type charged struct {
	sim.Costs
	fp verify.Footprints
}

func (c charged) ActBytes(k int, f sched.Op) int64  { return c.fp.ActBytes(k, f) }
func (c charged) GradBytes(k int, b sched.Op) int64 { return c.fp.GradBytes(k, b) }

// bind binds se to cur as the annealer binds its session, with the
// budget's footprints as memory charges and its caps as ActBudget, and
// evaluates it.
func bind(se *sim.Session, cur *sched.Schedule, costs sim.Costs, budget *verify.Budget) (*sim.Result, error) {
	var caps []int64
	if budget != nil {
		caps = budget.ActBudget
	}
	if err := se.Bind(sim.Options{Sched: cur, Costs: charged{costs, budget.Charges()}, ActBudget: caps}); err != nil {
		return nil, err
	}
	return se.Eval(cur)
}

// evaluate decides the candidate against the current state, whose time is
// curTime, through its slot's overlay: the interval sort, then the
// moved stage's budget walk, and only a move that passes both is
// re-solved. Infeasible candidates never reach the simulator's solve —
// the property the package tests pin. A no-op move is the current state.
//
//mepipe:hotpath
func evaluate(c *candidate, curTime float64, ov *sim.Overlay) {
	if len(c.win) == 0 {
		c.feasible, c.time = true, curTime
		return
	}
	c.feasible, c.time = false, 0
	if err := ov.Load(c.move()); err != nil {
		return
	}
	r, err := ov.Eval()
	if err != nil {
		return
	}
	c.feasible, c.time = true, r.IterTime
}

// commit makes an accepted move the current state, once, on the
// coordinator: ov, the overlay that evaluated it, commits it to the
// session, and the window is copied into cur in place.
//
//mepipe:hotpath
func commit(c *candidate, cur *sched.Schedule, ov *sim.Overlay) error {
	if len(c.win) == 0 {
		return nil
	}
	if err := ov.Commit(); err != nil {
		return err
	}
	copy(cur.Stages[c.stage][c.lo:], c.win)
	return nil
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

// copyStages copies src's op lists into dst's, which have the same
// lengths.
func copyStages(dst, src *sched.Schedule) {
	for k := range src.Stages {
		copy(dst.Stages[k], src.Stages[k])
	}
}

func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Stages = make([][]sched.Op, len(s.Stages))
	for k := range s.Stages {
		c.Stages[k] = append([]sched.Op(nil), s.Stages[k]...)
	}
	return &c
}
