package sim

import (
	"fmt"
	"math"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// Move is a one-stage reorder of a session's bound order: Ops is the new
// order of the ops at positions Lo through Lo+len(Ops)−1 of stage Stage,
// and must be a permutation of the ops the bound order holds there.
type Move struct {
	Stage, Lo int
	Ops       []sched.Op
}

var (
	errOverlayScope = fmt.Errorf("sim: move overlays need a static, untraced session: %w", errs.ErrIncompatible)
	errNoOrder      = fmt.Errorf("sim: session holds no solved order to move (Eval it first): %w", errs.ErrIncompatible)
	errMoveShape    = fmt.Errorf("sim: move is not a permutation of the bound window: %w", errs.ErrIncompatible)
	errMoveStale    = fmt.Errorf("sim: no move is loaded, or the bound order changed since: %w", errs.ErrIncompatible)
	errNotEvaluated = fmt.Errorf("sim: the overlay holds no successfully evaluated move, or the bound order changed since: %w", errs.ErrIncompatible)
	errMoveCycle    = fmt.Errorf("sim: move closes a program-order/dependency cycle (the order deadlocks): %w", errs.ErrUncertified)
	errMoveOOM      = fmt.Errorf("sim: move exceeds a stage's activation budget: %w", errs.ErrOOM)
)

// Overlay evaluates moves of a session's bound order without writing it:
// the annealer's inner loop, where every proposal is the current state
// with one stage's window reordered. A move is one Load and one Eval.
// Load resolves the window's op ids. Eval re-sorts the window's rank
// interval of the bound topological order (sched.Topo.Interval, with the
// move's order as the stage's chain), which is the move's deadlock
// verdict. It then re-sums the moved stage's compute and peak in its new
// list order, which under the session's ActBudget is the move's memory
// verdict; every other stage's come from the session's cached aggregates.
// Only then does it re-solve the ops downstream of the window, each once,
// in the new order, into scratch finish times stamped for this move. The
// Result is bitwise the one a full Run of the moved schedule returns, and
// since the bound state is only read, a rejected move costs nothing to
// undo. Commit publishes an accepted move from the overlay that evaluated
// it; the overlay is the session's only incremental solver.
//
// Overlays of one session may Load and Eval concurrently: each owns only
// its scratch. Nothing may write the session (Eval, Commit, Bind) while
// any of them runs, and a Load is void once the session is written.
type Overlay struct {
	se   *Session
	gen  uint64 // the session generation the loaded move was resolved at
	done uint64 // the session generation of the loaded move's last successful Eval, else 0

	// The loaded move: stage k's positions lo..hi hold win in its order;
	// after is the bound op just past the window (-1 at the stage's end).
	k, lo, hi int
	win       []int32
	after     int32
	rlo, rhi  int32

	// By op id, valid where stamped with ep: inWin marks the window's
	// ops, whose chain neighbours are cprev/cnext (cprev also holds the
	// after op's new predecessor); dirty marks the ops this move
	// re-solves, whose finish times are fin. sorted is the window's
	// re-sorted rank interval, solved the ops re-solved, in order.
	ep     uint32
	inWin  []uint32
	dirty  []uint32
	cprev  []int32
	cnext  []int32
	fin    []float64
	indeg  []int32
	sorted []int32
	solved []int32

	pending int
	compute float64 // the moved stage's compute and peak (restat's)
	peak    int64
	fam     famMem
	res     Result
}

// NewOverlay returns an overlay over se. Only a static, untraced session
// can be moved; any other returns a wrapped errs.ErrIncompatible. The
// session must have been evaluated before the overlay's first Load.
//
//mepipe:coldalloc an overlay sizes its scratch once per session shape
func (se *Session) NewOverlay() (*Overlay, error) {
	if !se.overlayable() {
		return nil, errOverlayScope
	}
	n := se.n
	ov := &Overlay{se: se}
	ov.inWin = make([]uint32, n)
	ov.dirty = make([]uint32, n)
	ov.cprev = make([]int32, n)
	ov.cnext = make([]int32, n)
	ov.fin = make([]float64, n)
	ov.indeg = make([]int32, n)
	ov.sorted = make([]int32, 0, n)
	ov.solved = make([]int32, 0, n)
	ov.win = make([]int32, 0, se.x.PerStage())
	ov.fam.grow(se.nfam)
	ov.res.Stages = make([]StageResult, se.P)
	return ov, nil
}

// overlayable reports whether se is in the scope moves are defined for.
func (se *Session) overlayable() bool {
	return !se.dynamicW && se.opt.Trace == nil && se.n > 0
}

// Load resolves m's window against the bound order into the window's op
// ids. It returns a wrapped errs.ErrIncompatible when m is not a
// permutation of a window of the bound order, the session has no solved
// order, or it was rebound out of the overlay's scope or shape: its stage
// count, op count or family count.
//
//mepipe:hotpath
func (ov *Overlay) Load(m Move) error {
	se := ov.se
	ov.gen, ov.done = 0, 0 // no session generation: Eval and Commit refuse a failed Load
	if !se.overlayable() || len(ov.fin) != se.n || len(ov.res.Stages) != se.P || len(ov.fam.ep) != se.nfam {
		return errOverlayScope
	}
	if !se.valid {
		return errNoOrder
	}
	k, lo := m.Stage, m.Lo
	if uint(k) >= uint(se.P) || len(m.Ops) == 0 || lo < 0 || lo+len(m.Ops) > len(se.order[k]) {
		return errMoveShape
	}
	if ov.ep++; ov.ep == 0 {
		clear(ov.inWin)
		clear(ov.dirty)
		ov.ep = 1
	}
	ord := se.order[k]
	hi := lo + len(m.Ops) - 1
	win := ov.win[:0]
	prev := int32(-1)
	if lo > 0 {
		prev = ord[lo-1]
	}
	for _, op := range m.Ops {
		id := se.x.ID(k, op)
		if id < 0 || se.opsl[id] != op || ov.inWin[id] == ov.ep {
			return errMoveShape
		}
		if p := int(se.pos[id]); p < lo || p > hi {
			return errMoveShape
		}
		ov.inWin[id] = ov.ep
		ov.cprev[id] = prev
		if len(win) > 0 {
			ov.cnext[prev] = id
		}
		win = append(win, id)
		prev = id
	}
	ov.after = se.next[ord[hi]]
	ov.cnext[prev] = ov.after
	if ov.after >= 0 {
		ov.cprev[ov.after] = prev
	}
	ov.win = win
	ov.k, ov.lo, ov.hi = k, lo, hi
	ov.rlo, ov.rhi = se.topo.Rank[ord[lo]], se.topo.Rank[ord[hi]]
	ov.gen = se.gen
	return nil
}

// Eval evaluates the loaded move. A move that deadlocks returns a wrapped
// errs.ErrUncertified, and under the session's ActBudget one whose static
// retention exceeds a stage's budget returns a wrapped errs.ErrOOM, both
// before any op is re-solved. The Result is owned by the overlay and
// overwritten by its next Eval; it never marks OOM, since a move that
// would is refused.
//
//mepipe:hotpath
func (ov *Overlay) Eval() (*Result, error) {
	se := ov.se
	if ov.gen != se.gen {
		return nil, errMoveStale
	}
	per := int32(se.x.PerStage())
	ch := sched.Chain{Lo: int32(ov.k) * per, Hi: int32(ov.k+1) * per, Next: ov.cnext}
	ov.sorted = se.topo.Interval(se.dt, se.next, ch, ov.rlo, ov.rhi, ov.indeg, ov.sorted)
	if len(ov.sorted) != int(ov.rhi-ov.rlo+1) {
		return nil, errMoveCycle
	}
	compute, peak, ok := ov.restat()
	if !ok {
		return nil, errMoveOOM
	}
	ov.compute, ov.peak = compute, peak
	ov.solve()
	ov.assemble()
	ov.done = se.gen
	return &ov.res, nil
}

// mark flags op id for re-solving under the loaded move.
func (ov *Overlay) mark(id int32) {
	if ov.dirty[id] != ov.ep {
		ov.dirty[id] = ov.ep
		ov.pending++
	}
}

// finish is op id's finish time under the loaded move: its re-solved one
// when the move dirtied it (every dirty predecessor of an op is re-solved
// first), else the bound one.
func (ov *Overlay) finish(id int32) float64 {
	if ov.dirty[id] == ov.ep {
		return ov.fin[id]
	}
	return ov.se.finish[id]
}

// solve walks the moved order — the re-sorted interval, then the bound
// order past it — from the window onward, re-solving each dirty op once:
// every predecessor ranks earlier, so its finish is final by then. The
// window's ops and the op after it start dirty, since their list
// predecessors changed; an op whose finish changed dirties its list
// successor and its dependents, and the walk stops once no dirty op is
// left.
func (ov *Overlay) solve() {
	se := ov.se
	ov.pending = 0
	ov.solved = ov.solved[:0]
	for _, id := range ov.win {
		ov.mark(id)
	}
	if ov.after >= 0 {
		ov.mark(ov.after)
	}
	for r := ov.rlo; ov.pending > 0; r++ {
		id := se.topo.Order[r]
		if r <= ov.rhi {
			id = ov.sorted[r-ov.rlo]
		}
		if ov.dirty[id] != ov.ep {
			continue
		}
		ov.pending--
		ov.solved = append(ov.solved, id)
		if !ov.recompute(id) {
			continue
		}
		j := se.next[id]
		if ov.inWin[id] == ov.ep {
			j = ov.cnext[id]
		}
		if j >= 0 {
			ov.mark(j)
		}
		for e := se.sucOff[id]; e < se.sucOff[id+1]; e++ {
			ov.mark(se.sucID[e])
		}
	}
}

// recompute is Session.recompute under the loaded move: the same
// recurrence in the same float-operation order, reading the move's list
// predecessor and finish times, writing only the overlay. It reports
// whether the op's finish differs from the bound one.
func (ov *Overlay) recompute(id int32) bool {
	se := ov.se
	prev := int32(-1)
	if ov.inWin[id] == ov.ep || id == ov.after {
		prev = ov.cprev[id]
	} else if p := se.pos[id]; p > 0 {
		prev = se.order[se.stg[id]][p-1]
	}
	prevFin := 0.0
	if prev >= 0 {
		prevFin = ov.finish(prev)
	}
	t := 0.0
	for e := se.depOff[id]; e < se.depOff[id+1]; e++ {
		f := ov.finish(se.depID[e]) + se.depComm[e]
		if f > t {
			t = f
		}
	}
	fin := max(prevFin, t) + se.dur[id]
	ov.fin[id] = fin
	return math.Float64bits(fin) != math.Float64bits(se.finish[id])
}

// restat re-sums the moved stage's compute and peak in its new list
// order, as Session.memScan sums them. Under an ActBudget it reports
// false at the first retention over the stage's cap, or at once when
// another stage of the bound order exceeds its own.
func (ov *Overlay) restat() (compute float64, peak int64, ok bool) {
	se := ov.se
	limit := int64(math.MaxInt64)
	if se.hasBudget {
		for k, p := range se.stOOMPos {
			if p >= 0 && k != ov.k {
				return 0, 0, false
			}
		}
		limit = se.budget[ov.k]
	}
	ord := se.order[ov.k]
	ov.fam.epoch++
	var live int64
	for p, id := range ord {
		if p >= ov.lo && p <= ov.hi {
			id = ov.win[p-ov.lo]
		}
		compute += se.dur[id]
		switch r, b := ov.fam.step(se.famID[id], se.opsl[id].Kind, se.memB[id], se.wPieces); r {
		case sched.RetainAct, sched.RetainGrad:
			if live += b; live > limit {
				return 0, 0, false
			}
			peak = max(peak, live)
		case sched.Release:
			live -= b
		}
	}
	return compute, peak, true
}

// assemble writes the move's Result: the moved stage's compute and peak
// (restat's), every other stage's from the session's cache, and each
// stage's finish from its last op under the move.
func (ov *Overlay) assemble() {
	se := ov.se
	res := &ov.res
	for k := 0; k < se.P; k++ {
		ord := se.order[k]
		st := StageResult{ComputeTime: se.stCompute[k], PeakAct: se.stPeak[k]}
		if k == ov.k {
			st.ComputeTime, st.PeakAct = ov.compute, ov.peak
		}
		if n := len(ord); n > 0 {
			last := ord[n-1]
			if k == ov.k && ov.hi == n-1 {
				last = ov.win[len(ov.win)-1]
			}
			st.Finish = ov.finish(last)
		}
		if se.hasTail {
			st.Finish += se.tailV[k]
		}
		res.Stages[k] = st
	}
	se.totals(res)
}

// Commit writes the loaded move into the session's bound order, from what
// the overlay's last Eval computed; it solves nothing again. It splices the
// window's re-sorted rank interval into the topological order, writes the
// window into the stage's order, positions and successors, copies the
// re-solved finish times, and sets the moved stage's compute and peak;
// an over-budget move was refused, so no stage is over its budget after
// it. Per-op start times are not kept: in overlay scope (static,
// untraced) only traced emission and the OOM attribution of a full
// evaluation read them, and both run after Eval's dense sweep, which
// re-solves them. Nor is the session's own Result rewritten. Commit
// returns a wrapped errs.ErrIncompatible, and leaves the session
// unchanged, when the overlay's last Load or Eval failed or the session
// was written since; it voids every overlay's loaded move.
//
//mepipe:hotpath
func (ov *Overlay) Commit() error {
	se := ov.se
	if ov.done != se.gen {
		return errNotEvaluated
	}
	se.topo.Splice(ov.rlo, ov.sorted)
	ord := se.order[ov.k]
	for i, id := range ov.win {
		ord[ov.lo+i] = id
		se.pos[id] = int32(ov.lo + i)
	}
	se.link(ord, max(ov.lo-1, 0), ov.hi)
	for _, id := range ov.solved {
		se.finish[id] = ov.fin[id]
	}
	se.stCompute[ov.k], se.stPeak[ov.k], se.stOOMPos[ov.k] = ov.compute, ov.peak, -1
	se.gen++
	return nil
}
