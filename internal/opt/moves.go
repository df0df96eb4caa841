package opt

import (
	"math/rand"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// The neighbourhood. Each operator perturbs exactly one stage's op order
// and by construction preserves the schedule's op multiset: a move, one
// stage's window of positions reordered, which the simulator overlay and
// the budget sweep evaluate against the current state. None of them
// tries to be clever about feasibility: deadlock-freedom and the memory
// budget are the certifier's job, and proposals it rejects cost one
// window sort or sweep, never a simulation.

// candidate is one proposed neighbour: the move, held in the candidate
// slot's buffer and reused across rounds, with its label (for obs events)
// and, after evaluation, its verdict. A candidate whose window is empty
// is a no-op move: the current state itself.
type candidate struct {
	operator string   // "swap", "shift" or "rebalance"
	stage    int      // the stage the move touched
	op       sched.Op // the op it displaced
	lo       int      // the window's first position
	win      []sched.Op

	feasible bool
	time     float64
}

// move is the candidate's move in the simulator's terms.
func (c *candidate) move() sim.Move { return sim.Move{Stage: c.stage, Lo: c.lo, Ops: c.win} }

// propose draws one candidate from the neighbourhood of cur into c,
// reusing its window buffer. All randomness comes from rng (the
// coordinator's stream); degenerate draws (single-op stages, zero
// displacements) fall through as no-op moves rather than redrawing,
// keeping the rng consumption per proposal fixed.
func propose(rng *rand.Rand, c *candidate, cur *sched.Schedule, maxShift int) {
	c.op, c.lo, c.win = sched.Op{}, 0, c.win[:0]
	switch rng.Intn(3) {
	case 0:
		proposeSwap(rng, c, cur)
	case 1:
		proposeShift(rng, c, cur, rng.Intn(cur.P), maxShift)
	default:
		proposeRebalance(rng, c, cur, maxShift)
	}
}

// proposeSwap exchanges two adjacent ops on one stage — the minimal
// reordering, and the workhorse late in the cooling schedule.
func proposeSwap(rng *rand.Rand, c *candidate, cur *sched.Schedule) {
	c.operator = "swap"
	k := rng.Intn(cur.P)
	ops := cur.Stages[k]
	c.stage = k
	if len(ops) < 2 {
		return
	}
	i := rng.Intn(len(ops) - 1)
	c.displace(ops, i, i+1)
}

// proposeRebalance re-places one weight-gradient op (W or WPiece) at a
// uniformly drawn position on its stage — the move that redistributes
// deferred W-GEMM work into bubbles, which neither local operator above
// reaches quickly. On fused-backward schedules (no W ops) it degrades to
// a plain shift so the draw is never wasted.
func proposeRebalance(rng *rand.Rand, c *candidate, cur *sched.Schedule, maxShift int) {
	c.operator = "rebalance"
	k := rng.Intn(cur.P)
	ops := cur.Stages[k]
	c.stage = k
	count := 0
	for _, op := range ops {
		if isWeightGrad(op) {
			count++
		}
	}
	if count == 0 {
		proposeShift(rng, c, cur, k, maxShift)
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
	c.displace(ops, from, to)
}

// isWeightGrad reports whether op is weight-gradient work, which the
// rebalance move re-places.
func isWeightGrad(op sched.Op) bool { return op.Kind == sched.W || op.Kind == sched.WPiece }

// proposeShift displaces one op on stage k up to maxShift positions along
// the stage, sliding the ops in between — the operator that carries an op
// across a slot boundary, and the rebalance fallback.
func proposeShift(rng *rand.Rand, c *candidate, cur *sched.Schedule, k, maxShift int) {
	c.operator = "shift"
	ops := cur.Stages[k]
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
	c.displace(ops, from, to)
}

// displace makes the candidate the move of ops[from] to position to on
// its stage, sliding the ops between: the window is the positions from
// through to, copied into the candidate's buffer and displaced there.
func (c *candidate) displace(ops []sched.Op, from, to int) {
	lo, hi := min(from, to), max(from, to)
	c.op, c.lo = ops[from], lo
	c.win = append(c.win, ops[lo:hi+1]...)
	displace(c.win, from-lo, to-lo)
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
