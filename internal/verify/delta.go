package verify

import (
	"fmt"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// Delta certifies one-stage moves against a certified base schedule: the
// schedule optimizer's inner loop, where every candidate is the current
// state with one stage's op order perturbed. Binding runs one dense Kahn
// pass over the base and keeps each op's topological rank; a Check then
// costs O(window) instead of Certify's O(ops + edges): Kahn over the rank
// interval of the moved window (sched.Topo.Interval, which argues why
// that interval is exact), with the candidate's order for the moved
// stage. The memory sweep is stage-local, and an acyclic move keeps each
// family's F before its backward before its weight-gradient work
// (same-stage dependencies), so retention outside the window is the
// base's and only the window is re-swept. Rebind moves the binding to an
// accepted move in the same O(window).
//
// A Check returns nil exactly when Certify(cand, Options{Budget}) would,
// but never builds a counterexample: a rejection is a shared error
// wrapping errs.ErrUncertified. Callers that need the minimal *CycleError
// or *BudgetError call Certify.
//
// Forks share the bound base and own private scratch, so workers may
// Check concurrently; Bind and Rebind must not run concurrently with any
// Check. The bound schedule's op lists must not change while it is bound:
// Check recognises an unmoved stage by identity, not by content.
type Delta struct {
	b *deltaBase

	// Per-worker scratch, indexed by dense op id unless noted.
	win   []int32  // the candidate's window ids, in candidate order
	stamp []uint32 // duplicate detection over the window
	epoch uint32
	cnext []int32 // candidate program-order successor of a window op
	indeg []int32
	queue []int32
	last  []int32 // by family: last window position of a WPiece
}

// deltaBase is the binding forks share: read-only between Binds.
type deltaBase struct {
	budget *Budget
	base   *sched.Schedule

	// dense is false until a Bind certifies; every Check then runs the
	// full Certify.
	dense bool
	t     *sched.DepTable
	x     sched.OpIndex

	// By dense op id: position within its stage and base program-order
	// successor (-1 at the end of a stage), aliasing the base as sc
	// loaded it; topo ranks the base.
	pos  []int32
	next []int32
	topo sched.Topo

	// The memory side, filled only when the budget caps stages. live is
	// the base's retention on its stage after each op, by id; famB and
	// gradB are each family's F and BAct footprints, relPos the stage
	// position of the op that releases it.
	capped      bool
	live        []int64
	famB, gradB []int64
	relPos      []int32

	// Bind-time scratch: the base is loaded onto its universe in sc.
	pieces []int32
	sc     certScratch
}

var (
	errMoveCycle  = fmt.Errorf("verify: move closes a dependency cycle: %w", errs.ErrUncertified)
	errMoveBudget = fmt.Errorf("verify: move overflows its stage's memory budget: %w", errs.ErrUncertified)
)

// NewDelta returns an unbound Delta for the budget (nil certifies
// structure only, like Certify). Bind it before the first Check.
func NewDelta(budget *Budget) *Delta {
	return &Delta{b: &deltaBase{budget: budget}}
}

// Fork returns a Delta that shares d's binding (and every later Bind on
// either) with private scratch of its own.
func (d *Delta) Fork() *Delta { return &Delta{b: d.b} }

// Bind makes base the schedule later candidates are checked against, in
// O(ops + edges). It returns Certify's error (with its counterexample)
// when base does not certify under the budget, and leaves the Delta
// falling back to Certify on every Check until the next successful Bind.
func (d *Delta) Bind(base *sched.Schedule) error {
	b := d.b
	b.base, b.dense = base, false
	if base == nil || base.P <= 0 || base.V <= 0 || base.S <= 0 || base.N <= 0 ||
		len(base.Stages) != base.P || base.Place == nil || !d.bindDense() {
		_, err := Certify(base, Options{Budget: b.budget})
		return err
	}
	return nil
}

// sweepBase steps the base through the retention rule (sched.PieceStep),
// recording each family's footprints, where it is released, and the
// stage's retention after every op. The base is acyclic here, so each
// family runs F, then its backward, then its weight-gradient work. It
// returns false when the base overflows its budget.
func (b *deltaBase) sweepBase() bool {
	s, x := b.base, b.x
	famBytes, gradBytes := b.budget.footprints()
	nf := x.Families()
	b.famB = kgrow(b.famB, nf)
	b.gradB = kgrow(b.gradB, nf)
	b.relPos = kgrow(b.relPos, nf)
	b.pieces = kgrow(b.pieces, nf)
	clear(b.pieces)
	b.live = kgrow(b.live, x.Total())
	p := 0
	for k, ops := range s.Stages {
		var live int64
		for i, op := range ops {
			id := b.sc.IDs[p]
			p++
			f := x.FamilyOf(id)
			r := sched.PieceStep(op.Kind, &b.pieces[f], s.WPieces)
			switch r {
			case sched.RetainAct:
				b.famB[f], b.gradB[f] = famBytes(k, op), 0
			case sched.RetainGrad:
				b.gradB[f] = gradBytes(k, op)
			case sched.Release:
				b.relPos[f] = int32(i)
			}
			live += b.retention(r, f)
			if live > b.budget.ActBudget[k] {
				return false
			}
			b.live[id] = live
		}
	}
	return true
}

// retention is the change step r of family f makes to its stage's
// retention, in the binding's footprints.
func (b *deltaBase) retention(r sched.Retention, f int32) int64 {
	switch r {
	case sched.RetainAct:
		return b.famB[f]
	case sched.RetainGrad:
		return b.gradB[f]
	case sched.Release:
		return -(b.famB[f] + b.gradB[f])
	}
	return 0
}

// grow sizes the per-worker scratch for a shape of total ops.
//
//mepipe:coldalloc first-touch growth of per-worker scratch, once per shape
func (d *Delta) grow(total, families int) {
	if len(d.stamp) == total && len(d.last) == families {
		return
	}
	d.stamp = make([]uint32, total)
	d.epoch = 0
	d.cnext = make([]int32, total)
	d.indeg = make([]int32, total)
	d.last = make([]int32, families)
	d.queue = make([]int32, 0, total)
	d.win = make([]int32, 0, total/max(len(d.b.base.Stages), 1)+1)
}

// Check reports whether cand certifies, given that it equals the bound
// base except for the order of ops on stage: every other stage must be
// the base's own slice (as a move built by copying the base's Stages
// header and cloning one stage leaves it), and cand must share the base's
// shape and map every model chunk to the same host. A candidate outside
// that contract gets the full Certify. The verdict is Certify(cand,
// Options{Budget})'s; a rejection carries no counterexample.
//
//mepipe:hotpath
func (d *Delta) Check(cand *sched.Schedule, stage int) error {
	b := d.b
	if !b.dense || !b.contract(cand, stage) {
		return d.full(cand)
	}
	if len(d.stamp) != b.x.Total() {
		d.grow(b.x.Total(), b.x.Families())
	}
	bops, cops := b.base.Stages[stage], cand.Stages[stage]
	lo, hi, moved := diffWindow(bops, cops)
	if !moved {
		return nil // the base's own order
	}
	if !d.window(stage, bops, cops, lo, hi) {
		return d.full(cand)
	}
	if _, ok := d.sortWindow(stage, bops, lo, hi); !ok {
		return errMoveCycle
	}
	if b.capped && !d.fits(stage, cops, lo, hi, false) {
		return errMoveBudget
	}
	return nil
}

// bindDense loads the base onto its universe as Certify does, ranks it
// and sweeps its retention. It returns false when any of Certify's checks
// fails — the cases Bind hands to Certify for the counterexample.
func (d *Delta) bindDense() bool {
	b := d.b
	s, sc := b.base, &b.sc
	b.t = s.DepTable()
	b.x = b.t.Ix
	if b.t.Neg > 0 || sc.Load(s).Kind != sched.NoFault {
		return false
	}
	total := b.x.Total()
	d.grow(total, b.x.Families())
	b.pos, b.next = sc.Pos, sc.Next
	if b.topo.Sort(b.t, b.next, d.indeg) != total {
		return false
	}
	b.capped = b.budget != nil && b.budget.ActBudget != nil
	if b.capped && (len(b.budget.ActBudget) != s.P || !b.sweepBase()) {
		return false
	}
	b.dense = true
	return true
}

// Rebind moves the binding to cand, an accepted one-stage move of the
// bound base on stage (Check's contract), in O(window): it splices the
// window's Kahn order into the ranks, re-links the moved stage's
// positions and successors, and re-sweeps the window's retention. It
// leaves pos, next and the retention tables exactly as Bind(cand) would,
// and the ranks a topological order of cand (not necessarily Bind's). A
// candidate outside the contract, or one that does not certify, gets the
// full Bind and its error.
//
//mepipe:hotpath
func (d *Delta) Rebind(cand *sched.Schedule, stage int) error {
	b := d.b
	if !b.dense || !b.contract(cand, stage) {
		return d.bindFull(cand)
	}
	if len(d.stamp) != b.x.Total() {
		d.grow(b.x.Total(), b.x.Families())
	}
	bops, cops := b.base.Stages[stage], cand.Stages[stage]
	lo, hi, moved := diffWindow(bops, cops)
	if !moved {
		b.base = cand
		return nil
	}
	if !d.window(stage, bops, cops, lo, hi) {
		return d.bindFull(cand)
	}
	rlo, ok := d.sortWindow(stage, bops, lo, hi)
	if !ok || b.capped && !d.fits(stage, cops, lo, hi, true) {
		return d.bindFull(cand)
	}
	b.topo.Splice(rlo, d.queue)
	last := d.win[len(d.win)-1]
	after := b.next[b.x.ID(stage, bops[hi])]
	if lo > 0 {
		b.next[b.x.ID(stage, bops[lo-1])] = d.win[0]
	}
	for i, id := range d.win {
		b.pos[id] = int32(lo + i)
		b.next[id] = d.cnext[id]
	}
	b.next[last] = after
	b.base = cand
	return nil
}

// bindFull is Rebind's out-of-contract path: the whole Bind.
//
//mepipe:coldalloc a move outside the one-stage contract pays for a full Bind
func (d *Delta) bindFull(cand *sched.Schedule) error { return d.Bind(cand) }

// diffWindow returns the first and last positions where two equally long
// op lists differ; moved is false when they do not.
func diffWindow(bops, cops []sched.Op) (lo, hi int, moved bool) {
	lo, hi = 0, len(cops)-1
	for lo <= hi && cops[lo] == bops[lo] {
		lo++
	}
	if lo > hi {
		return 0, 0, false
	}
	for cops[hi] == bops[hi] {
		hi--
	}
	return lo, hi, true
}

// contract reports whether c is a one-stage move of the base on stage k.
func (b *deltaBase) contract(c *sched.Schedule, k int) bool {
	s := b.base
	if c == nil || c.P != s.P || c.V != s.V || c.S != s.S || c.N != s.N ||
		c.SplitBW != s.SplitBW || c.WPieces != s.WPieces || c.Place == nil ||
		len(c.Stages) != s.P || uint(k) >= uint(s.P) || len(c.Stages[k]) != len(s.Stages[k]) {
		return false
	}
	for j, ops := range s.Stages {
		if j != k && !sameSlice(c.Stages[j], ops) {
			return false
		}
	}
	return samePlace(c.Place, s.Place, s.P*s.V)
}

// samePlace reports whether two placements host each of the first chunks
// global model chunks on the same stage and local chunk. Placements are
// compared by their maps, not by value: a Placement need not be
// comparable.
func samePlace(a, b sched.Placement, chunks int) bool {
	if a.Stages() != b.Stages() || a.ChunksPerStage() != b.ChunksPerStage() {
		return false
	}
	for g := 0; g < chunks; g++ {
		ka, la := a.Host(g)
		kb, lb := b.Host(g)
		if ka != kb || la != lb {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b are the same op list, not merely
// equal ones.
func sameSlice(a, b []sched.Op) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// window resolves the candidate's ops at [lo, hi] into d.win and chains
// them in candidate order through d.cnext. It returns false unless they
// are a permutation of the base's ops at those positions.
func (d *Delta) window(k int, bops, cops []sched.Op, lo, hi int) bool {
	b := d.b
	d.epoch++
	if d.epoch == 0 {
		clear(d.stamp)
		d.epoch = 1
	}
	win := d.win[:0]
	for i := lo; i <= hi; i++ {
		op := cops[i]
		id := b.x.ID(k, op)
		if id < 0 {
			return false
		}
		p := int(b.pos[id])
		if p < lo || p > hi || bops[p] != op || d.stamp[id] == d.epoch {
			return false
		}
		d.stamp[id] = d.epoch
		if len(win) > 0 {
			d.cnext[win[len(win)-1]] = id
		}
		win = append(win, id)
	}
	d.cnext[win[len(win)-1]] = -1 // its successor ranks past the interval
	d.win = win
	return true
}

// sortWindow runs Kahn's algorithm over the ops ranked between the
// base's ops at lo and hi on stage k, with the candidate's order on stage
// k, into d.queue. Stage k's ops in that interval are exactly its window.
// It returns the interval's first rank and whether the interval is
// acyclic.
func (d *Delta) sortWindow(k int, bops []sched.Op, lo, hi int) (int32, bool) {
	b := d.b
	rlo, rhi := b.topo.Rank[b.x.ID(k, bops[lo])], b.topo.Rank[b.x.ID(k, bops[hi])]
	per := int32(b.x.PerStage())
	ch := sched.Chain{Lo: int32(k) * per, Hi: int32(k+1) * per, Next: d.cnext}
	d.queue = b.topo.Interval(b.t, b.next, ch, rlo, rhi, d.indeg, d.queue)
	return rlo, len(d.queue) == int(rhi-rlo+1)
}

// fits re-sweeps stage k's retention over the window, starting from the
// base's retention just before it. A family's weight-gradient pieces
// release it at the last piece in the candidate's order, which falls in
// the window exactly when the base's release does. With commit set it
// records the window's retention and release positions in the base, as
// a Bind of the candidate would (the caller rebinds in full if it does
// not fit).
func (d *Delta) fits(k int, cops []sched.Op, lo, hi int, commit bool) bool {
	b := d.b
	x := b.x
	if b.base.WPieces > 0 {
		for i, id := range d.win {
			if cops[lo+i].Kind == sched.WPiece {
				d.last[x.FamilyOf(id)] = int32(lo + i)
			}
		}
	}
	capK := b.budget.ActBudget[k]
	var cur int64
	if lo > 0 {
		cur = b.live[x.ID(k, cops[lo-1])]
	}
	for i, id := range d.win {
		f := x.FamilyOf(id)
		kind := cops[lo+i].Kind
		lastPiece := false
		if kind == sched.WPiece {
			rp := int(b.relPos[f])
			lastPiece = rp >= lo && rp <= hi && int(d.last[f]) == lo+i
		}
		r := sched.RetentionOf(kind, lastPiece)
		if cur += b.retention(r, f); cur > capK {
			return false
		}
		if commit {
			b.live[id] = cur
			if r == sched.Release {
				b.relPos[f] = int32(lo + i)
			}
		}
	}
	return true
}

// full is the out-of-contract path: the whole certifier.
//
//mepipe:coldalloc a candidate outside the one-stage contract pays for a full Certify
func (d *Delta) full(cand *sched.Schedule) error {
	_, err := Certify(cand, Options{Budget: d.b.budget})
	return err
}
