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

// sweep walks each stage's op list in program order, replaying the
// simulator's retention rules, and records peak live families (always)
// and peak bytes under b's footprints (when b is non-nil). It fails the
// moment a stage's retention exceeds its budget. Per-family state lives
// in sc's arrays, indexed by OpIndex.FamilyOf; an op that does not index
// can only get here when AssumeComplete was set on an incomplete table,
// and is reported as checkComplete would have reported it.
func sweep(s *sched.Schedule, b *Budget, cert *Certificate, sc *certScratch) error {
	famBytes := func(stage int, op sched.Op) int64 { return 1 }
	gradBytes := func(stage int, op sched.Op) int64 { return 0 }
	if b != nil {
		if b.FamilyBytes != nil {
			famBytes = b.FamilyBytes
		}
		if b.GradBytes != nil {
			gradBytes = b.GradBytes
		}
		if b.ActBudget != nil && len(b.ActBudget) != s.P {
			return &ShapeError{Schedule: s.String(),
				Detail: fmt.Sprintf("budget has %d stage entries, want %d", len(b.ActBudget), s.P)}
		}
	}
	x := sched.IndexOf(s)
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
			id := x.ID(k, op)
			if id < 0 {
				return unindexedOp(s, k, op)
			}
			f := x.FamilyOf(id)
			switch op.Kind {
			case sched.F:
				retain(f, famBytes(k, op))
			case sched.B, sched.W:
				release(f)
			case sched.BAct:
				retain(f, gradBytes(k, op))
			case sched.WPiece:
				sc.pieces[f]++
				if int(sc.pieces[f]) == s.WPieces {
					release(f)
					sc.pieces[f] = 0
				}
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

// unindexedOp reports an op outside the schedule's dense index: the
// completeness check's verdict, which always rejects such an op.
func unindexedOp(s *sched.Schedule, k int, op sched.Op) error {
	if err := checkComplete(s); err != nil {
		return err
	}
	return &ShapeError{Schedule: s.String(), Detail: fmt.Sprintf("stage %d: op %v out of range", k, op)}
}
