package verify

import (
	"fmt"

	"mepipe/internal/errs"
	"mepipe/internal/memplan"
	"mepipe/internal/sched"
)

// Budget bounds the static memory sweep. ActBudget[k] is stage k's cap;
// FamilyBytes and GradBytes give the per-op footprints charged by the
// sweep (the same quantities sim.Costs reports). Nil footprints select
// unit slot counting: one slot per live family, no gradient retention —
// the right model for proving schedule-shape bounds like "DAPPLE retains
// at most p−k micro-batches on stage k".
type Budget struct {
	ActBudget   []int64
	FamilyBytes func(stage int, f sched.Op) int64
	GradBytes   func(stage int, b sched.Op) int64
}

// SlotBudget is a unit-slot Budget: stage k may retain at most
// maxFamilies[k] concurrently live activation families.
func SlotBudget(maxFamilies []int) *Budget {
	caps := make([]int64, len(maxFamilies))
	for i, m := range maxFamilies {
		caps[i] = int64(m)
	}
	return &Budget{ActBudget: caps}
}

// Footprints is the memory slice of the simulator's cost model
// (sim.Costs satisfies it): retained activation bytes per completed
// forward, and extra retention between a split backward and its weight
// gradients.
type Footprints interface {
	ActBytes(stage int, f sched.Op) int64
	GradBytes(stage int, b sched.Op) int64
}

// PlanBudget derives a byte-accurate Budget from a memory plan (§4.5)
// and a cost model's footprints: certifying against it proves the
// schedule's static retention fits each stage's activation budget.
func PlanBudget(plan *memplan.Plan, fp Footprints) *Budget {
	return &Budget{
		ActBudget:   plan.ActBudget,
		FamilyBytes: fp.ActBytes,
		GradBytes:   fp.GradBytes,
	}
}

// Charges returns the per-op footprints the sweep charges: b's, with unit
// slot counting (one per family, no gradient retention) standing in for
// any that are nil, or for a nil b. A static simulation charging them
// (sim.Costs with these ActBytes and GradBytes) retains, op for op, what
// the sweep does, so its per-stage peaks are Certify's PeakBytes.
func (b *Budget) Charges() Footprints {
	c := charges{fam: unitSlot, grad: noGrad}
	if b != nil && b.FamilyBytes != nil {
		c.fam = b.FamilyBytes
	}
	if b != nil && b.GradBytes != nil {
		c.grad = b.GradBytes
	}
	return c
}

// charges is a Budget's footprints as Footprints.
type charges struct {
	fam, grad func(stage int, op sched.Op) int64
}

func (c charges) ActBytes(k int, f sched.Op) int64  { return c.fam(k, f) }
func (c charges) GradBytes(k int, b sched.Op) int64 { return c.grad(k, b) }

func unitSlot(int, sched.Op) int64 { return 1 }
func noGrad(int, sched.Op) int64   { return 0 }

// BudgetError is the memory-safety counterexample: the first op at which
// a stage's swept retention exceeds its budget, with what was live.
type BudgetError struct {
	Schedule string
	Stage    int
	// OpIndex is the offending op's position in the stage's list.
	OpIndex int
	Op      sched.Op
	// Live is the retention the op's allocation would reach; Budget is
	// the stage's cap (both in the Budget's units — bytes, or family
	// slots for unit budgets). Families counts the live families at the
	// overflow, including the op's own.
	Live, Budget int64
	Families     int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("verify: %s stage %d: retention exceeds budget at op %d (%v): %d live families, %d > budget %d",
		e.Schedule, e.Stage, e.OpIndex, e.Op, e.Families, e.Live, e.Budget)
}

func (e *BudgetError) Unwrap() error { return errs.ErrUncertified }

// sweep walks each stage's op list in program order, stepping each op
// through the one retention rule (sched.PieceStep), and records peak live
// families (always) and peak bytes under b's footprints (when b is
// non-nil). It fails the moment a stage's retention exceeds its budget.
// Ops are read as the ids sc loaded, and per-family state lives in sc's
// arrays, indexed by OpIndex.FamilyOf.
func sweep(s *sched.Schedule, x sched.OpIndex, b *Budget, cert *Certificate, sc *certScratch) error {
	fp := b.Charges()
	if b != nil && b.ActBudget != nil && len(b.ActBudget) != s.P {
		return &ShapeError{Schedule: s.String(),
			Detail: fmt.Sprintf("budget has %d stage entries, want %d", len(b.ActBudget), s.P)}
	}
	nf := x.Families()
	sc.live = kgrow(sc.live, nf)
	sc.bytes = kgrow(sc.bytes, nf)
	sc.pieces = kgrow(sc.pieces, nf)
	clear(sc.live)
	clear(sc.bytes)
	clear(sc.pieces)
	cert.PeakFamilies = make([]int, s.P)
	if b != nil {
		cert.PeakBytes = make([]int64, s.P)
	}
	p := 0
	for k, ops := range s.Stages {
		var live int64
		nlive := 0 // families with sc.live set on this stage
		// release drops family f: its retained bytes leave the stage.
		release := func(f int32) {
			live -= sc.bytes[f]
			sc.bytes[f] = 0
			if sc.live[f] {
				sc.live[f] = false
				nlive--
			}
		}
		retain := func(f int32, add int64) {
			sc.bytes[f] += add
			live += add
			if !sc.live[f] {
				sc.live[f] = true
				nlive++
			}
		}
		peakFams, peakBytes := 0, int64(0)
		for i, op := range ops {
			f := x.FamilyOf(sc.IDs[p])
			p++
			switch sched.PieceStep(op.Kind, &sc.pieces[f], s.WPieces) {
			case sched.RetainAct:
				retain(f, fp.ActBytes(k, op))
			case sched.RetainGrad:
				retain(f, fp.GradBytes(k, op))
			case sched.Release:
				release(f)
			}
			if nlive > peakFams {
				peakFams = nlive
			}
			if live > peakBytes {
				peakBytes = live
			}
			if b != nil && b.ActBudget != nil && live > b.ActBudget[k] {
				return &BudgetError{
					Schedule: cert.Schedule, Stage: k, OpIndex: i, Op: op,
					Live: live, Budget: b.ActBudget[k], Families: nlive,
				}
			}
		}
		cert.PeakFamilies[k] = peakFams
		if b != nil {
			cert.PeakBytes[k] = peakBytes
		}
	}
	return nil
}
