package opt

import (
	"math/rand"

	"mepipe/internal/sched"
)

// The neighbourhood. Each operator perturbs exactly one stage's op order
// and by construction preserves the schedule's op multiset — a one-stage
// permutation, the move verify.Delta.Check certifies incrementally.
// None of them tries to be clever about feasibility: deadlock-freedom and
// the memory budget are the certifier's job, and proposals it rejects
// cost one graph check, never a simulation.

// candidate is one proposed neighbour: the perturbed schedule plus the
// move descriptor (for obs events) and, after evaluation, its verdict.
type candidate struct {
	sched    *sched.Schedule
	operator string   // "swap", "shift" or "rebalance"
	stage    int      // the stage the move touched
	op       sched.Op // the op it displaced

	feasible bool
	time     float64
}

// propose draws one candidate from the neighbourhood of cur. All
// randomness comes from rng (the coordinator's stream); degenerate draws
// (single-op stages, zero displacements) fall through as no-op candidates
// rather than redrawing, keeping the rng consumption per proposal fixed.
func propose(rng *rand.Rand, cur *sched.Schedule, maxShift int) candidate {
	c := candidate{sched: shareStages(cur)}
	switch rng.Intn(3) {
	case 0:
		proposeSwap(rng, &c)
	case 1:
		proposeShift(rng, &c, maxShift)
	default:
		proposeRebalance(rng, &c, maxShift)
	}
	return c
}

// proposeSwap exchanges two adjacent ops on one stage — the minimal
// reordering, and the workhorse late in the cooling schedule.
func proposeSwap(rng *rand.Rand, c *candidate) {
	c.operator = "swap"
	k := rng.Intn(c.sched.P)
	ops := c.ownStage(k)
	c.stage = k
	if len(ops) < 2 {
		return
	}
	i := rng.Intn(len(ops) - 1)
	ops[i], ops[i+1] = ops[i+1], ops[i]
	c.op = ops[i+1]
}

// proposeShift displaces one op up to maxShift positions along its
// stage, sliding the ops in between — the operator that carries an op
// across a slot boundary.
func proposeShift(rng *rand.Rand, c *candidate, maxShift int) {
	c.operator = "shift"
	k := rng.Intn(c.sched.P)
	ops := c.ownStage(k)
	c.stage = k
	if len(ops) < 2 {
		return
	}
	from := rng.Intn(len(ops))
	delta := rng.Intn(2*maxShift+1) - maxShift
	to := from + delta
	if to < 0 || to >= len(ops) || to == from {
		return
	}
	c.op = ops[from]
	displace(ops, from, to)
}

// proposeRebalance re-places one weight-gradient op (W or WPiece) at a
// uniformly drawn position on its stage — the move that redistributes
// deferred W-GEMM work into bubbles, which neither local operator above
// reaches quickly. On fused-backward schedules (no W ops) it degrades to
// a plain shift so the draw is never wasted.
func proposeRebalance(rng *rand.Rand, c *candidate, maxShift int) {
	c.operator = "rebalance"
	k := rng.Intn(c.sched.P)
	ops := c.ownStage(k)
	c.stage = k
	count := 0
	for _, op := range ops {
		if isWeightGrad(op) {
			count++
		}
	}
	if count == 0 {
		proposeShiftAt(rng, c, k, maxShift)
		return
	}
	// The nth weight-gradient op, found in a second pass: no index slice.
	from, nth := 0, rng.Intn(count)
	for i, op := range ops {
		if isWeightGrad(op) {
			if nth == 0 {
				from = i
				break
			}
			nth--
		}
	}
	to := rng.Intn(len(ops))
	if to == from {
		return
	}
	c.op = ops[from]
	displace(ops, from, to)
}

// isWeightGrad reports whether op is weight-gradient work, which the
// rebalance move re-places.
func isWeightGrad(op sched.Op) bool { return op.Kind == sched.W || op.Kind == sched.WPiece }

// proposeShiftAt is proposeShift pinned to stage k (the rebalance
// fallback, which already owns stage k), keeping the operator label
// honest about what ran.
func proposeShiftAt(rng *rand.Rand, c *candidate, k, maxShift int) {
	c.operator = "shift"
	ops := c.sched.Stages[k]
	if len(ops) < 2 {
		return
	}
	from := rng.Intn(len(ops))
	delta := rng.Intn(2*maxShift+1) - maxShift
	to := from + delta
	if to < 0 || to >= len(ops) || to == from {
		return
	}
	c.op = ops[from]
	displace(ops, from, to)
}

// shareStages copies the schedule header and its Stages slice; the op
// lists stay shared with s until a move takes one over with ownStage.
// Nothing mutates a shared list: the current state's lists are only ever
// read, so a candidate clones just the one stage its move perturbs.
func shareStages(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Stages = append([][]sched.Op(nil), s.Stages...)
	return &c
}

// ownStage gives the candidate a private copy of stage k's op list and
// returns it.
func (c *candidate) ownStage(k int) []sched.Op {
	ops := append([]sched.Op(nil), c.sched.Stages[k]...)
	c.sched.Stages[k] = ops
	return ops
}

// displace moves ops[from] to position to, sliding the range between.
func displace(ops []sched.Op, from, to int) {
	op := ops[from]
	if from < to {
		copy(ops[from:], ops[from+1:to+1])
	} else {
		copy(ops[to+1:], ops[to:from])
	}
	ops[to] = op
}
