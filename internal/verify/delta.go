package verify

import (
	"mepipe/internal/sched"
)

// Delta sweeps the memory of one-stage moves against a certified base
// schedule: the budget half of certifying an annealer proposal, whose
// structural half is the simulator overlay's interval sort
// (sim.Overlay). A move is a stage k, a window of positions lo onward and
// the window's ops in their new order, with their sched.OpIndex ids.
// Binding sweeps the base's retention once and keeps it per stage
// position; Fits then re-sweeps only the window, starting from the base's
// retention just before it. That is exact for an acyclic move: the memory
// sweep is stage-local, and an acyclic move keeps each family's F before
// its backward before its weight-gradient work (same-stage dependencies),
// so retention outside the window is the base's. For a cyclic move Fits
// may answer either way; the move fails its interval sort regardless.
// Rebind moves the binding to an accepted move in the same O(window).
//
// Fits returns true exactly when Certify(cand, Options{Budget}) finds no
// budget overflow, given that cand is acyclic. It never builds a
// counterexample: callers that need the *BudgetError call Certify.
//
// Forks share the binding and own private scratch, so workers may call
// Fits concurrently; Bind and Rebind must not run concurrently with any
// Fits.
type Delta struct {
	b    *deltaBase
	last []int32 // by family: last window position of a WPiece
}

// deltaBase is the binding forks share: read-only between Binds.
type deltaBase struct {
	budget *Budget

	// dense is false until a Bind certifies; every Fits is false then.
	// capped is whether the budget caps stages at all: when it does not,
	// every move fits.
	dense, capped bool
	x             sched.OpIndex
	per           int // ops per stage
	wPieces       int

	// live is the base's retention on its stage after the op at each
	// stage position (k·per + p); famB and gradB are each family's F and
	// BAct footprints, relPos the stage position of the op that releases
	// it.
	live        []int64
	famB, gradB []int64
	relPos      []int32

	// Bind-time scratch: the base is loaded onto its universe in sc.
	pieces []int32
	sc     certScratch
}

// NewDelta returns an unbound Delta for the budget (nil certifies
// structure only, like Certify). Bind it before the first Fits.
func NewDelta(budget *Budget) *Delta {
	return &Delta{b: &deltaBase{budget: budget}}
}

// Fork returns a Delta that shares d's binding (and every later Bind or
// Rebind on either) with private scratch of its own.
func (d *Delta) Fork() *Delta { return &Delta{b: d.b} }

// Bind makes base the schedule later moves are swept against, in
// O(ops + edges). It returns Certify's error (with its counterexample)
// when base does not certify under the budget, and leaves the Delta
// fitting no move until the next successful Bind.
func (d *Delta) Bind(base *sched.Schedule) error {
	b := d.b
	b.dense = false
	if base == nil || base.P <= 0 || base.V <= 0 || base.S <= 0 || base.N <= 0 ||
		len(base.Stages) != base.P || base.Place == nil || !d.bindDense(base) {
		_, err := Certify(base, Options{Budget: b.budget})
		return err
	}
	return nil
}

// bindDense loads the base onto its universe as Certify does, proves it
// acyclic and sweeps its retention. It returns false when any of
// Certify's checks fails — the cases Bind hands to Certify for the
// counterexample.
func (d *Delta) bindDense(s *sched.Schedule) bool {
	b, sc := d.b, &d.b.sc
	t := s.DepTable()
	if t.Neg > 0 || sc.Load(s).Kind != sched.NoFault {
		return false
	}
	total := t.Ix.Total()
	sc.unmet = kgrow(sc.unmet, total)
	if sc.topo.Sort(t, sc.Next, sc.unmet) != total {
		return false
	}
	b.x, b.per, b.wPieces = t.Ix, t.Ix.PerStage(), s.WPieces
	b.capped = b.budget != nil && b.budget.ActBudget != nil
	if b.capped && (len(b.budget.ActBudget) != s.P || !b.sweepBase(s)) {
		return false
	}
	b.dense = true
	return true
}

// sweepBase steps the base through the retention rule (sched.PieceStep),
// recording each family's footprints, where it is released, and the
// stage's retention after every op. The base is acyclic here, so each
// family runs F, then its backward, then its weight-gradient work. It
// returns false when the base overflows its budget.
func (b *deltaBase) sweepBase(s *sched.Schedule) bool {
	x := b.x
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
			f := x.FamilyOf(b.sc.IDs[p])
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
			b.live[p] = live
			p++
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

// grow sizes the per-fork scratch for a shape's families.
//
//mepipe:coldalloc first-touch growth of per-fork scratch, once per shape
func (d *Delta) grow(families int) { d.last = make([]int32, families) }

// Fits reports whether the move that reorders stage k's positions lo
// onward to ops (whose OpIndex ids are ids) keeps the stage within its
// budget, given that the move is acyclic. A Delta that is not bound fits
// no move, and one whose budget caps no stage fits every move; so does a
// move whose window does not lie within its stage.
//
//mepipe:hotpath
func (d *Delta) Fits(k, lo int, ops []sched.Op, ids []int32) bool {
	return d.sweep(k, lo, ops, ids, false)
}

// Rebind moves the binding to an accepted move (Fits' arguments), in
// O(window): it re-sweeps the window's retention into the tables, which
// it leaves exactly as Bind of the moved schedule would. It returns false,
// with the binding unchanged, when the move does not fit.
//
//mepipe:hotpath
func (d *Delta) Rebind(k, lo int, ops []sched.Op, ids []int32) bool {
	return d.sweep(k, lo, ops, ids, false) && d.sweep(k, lo, ops, ids, true)
}

// sweep re-sweeps stage k's retention over the window, starting from the
// base's retention just before it. A family's weight-gradient pieces
// release it at the last piece in the move's order, which falls in the
// window exactly when the base's release does. With commit set it records
// the window's retention and release positions in the binding.
func (d *Delta) sweep(k, lo int, ops []sched.Op, ids []int32, commit bool) bool {
	b := d.b
	if !b.dense {
		return false
	}
	if !b.capped {
		return true
	}
	hi := lo + len(ops) - 1
	if uint(k) >= uint(len(b.budget.ActBudget)) || lo < 0 || hi >= b.per || len(ids) != len(ops) {
		return false
	}
	x := b.x
	if b.wPieces > 0 {
		if len(d.last) != x.Families() {
			d.grow(x.Families())
		}
		for i, id := range ids {
			if ops[i].Kind == sched.WPiece {
				d.last[x.FamilyOf(id)] = int32(lo + i)
			}
		}
	}
	capK := b.budget.ActBudget[k]
	at := k * b.per
	var cur int64
	if lo > 0 {
		cur = b.live[at+lo-1]
	}
	for i, id := range ids {
		f := x.FamilyOf(id)
		kind := ops[i].Kind
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
			b.live[at+lo+i] = cur
			if r == sched.Release {
				b.relPos[f] = int32(lo + i)
			}
		}
	}
	return true
}
