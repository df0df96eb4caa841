package sched

import (
	"fmt"

	"mepipe/internal/errs"
)

// Validate checks that the schedule is complete and executable:
//
//   - every stage contains exactly the required op multiset — one forward
//     and one backward (fused, or BAct plus W or WPieces) per
//     (micro-batch, slice, local chunk);
//   - the global graph formed by per-stage program order plus data
//     dependencies is acyclic, i.e. sequential workers executing their
//     lists in order can never deadlock.
//
// A nil error means any dependency-respecting executor can run the schedule
// to completion. Both checks run on the dense arithmetic op index — the
// first is Program.Load, no hashing, no per-op allocation — and the
// acyclicity check fills the schedule's DepTable cache.
func (s *Schedule) Validate() error {
	if s.P <= 0 || s.V <= 0 || s.S <= 0 || s.N <= 0 {
		return fmt.Errorf("sched: %s has non-positive shape: %w", s, errs.ErrIncompatible)
	}
	if len(s.Stages) != s.P {
		return fmt.Errorf("sched: %s has %d stage lists, want %d: %w", s, len(s.Stages), s.P, errs.ErrIncompatible)
	}
	if s.Place == nil {
		return fmt.Errorf("sched: %s has no chunk placement: %w", s, errs.ErrIncompatible)
	}
	var p Program
	switch f := p.Load(s); f.Kind {
	case Misfit:
		return s.checkShape(f.Stage, f.Op)
	case Duplicate:
		return fmt.Errorf("sched: %s stage %d: duplicate op %s: %w", s, f.Stage, f.Op, errs.ErrIncompatible)
	case Short:
		return fmt.Errorf("sched: %s stage %d: %d ops, want %d: %w", s, f.Stage, len(s.Stages[f.Stage]), s.OpsPerStage(), errs.ErrIncompatible)
	}
	if k, op, d, ok := s.AbsentDep(); ok {
		return fmt.Errorf("sched: %s stage %d: op %s depends on absent %s@stage%d: %w", s, k, op, d.Op, d.Stage, errs.ErrIncompatible)
	}
	return s.checkAcyclic(&p)
}

func (s *Schedule) checkShape(stage int, op Op) error {
	if op.Micro < 0 || op.Micro >= s.N || op.Slice < 0 || op.Slice >= s.S || op.Chunk < 0 || op.Chunk >= s.V {
		return fmt.Errorf("sched: %s stage %d: op %s out of range: %w", s, stage, op, errs.ErrIncompatible)
	}
	if op.Kind != WPiece && op.Piece != 0 {
		return fmt.Errorf("sched: %s stage %d: %s carries weight-gradient piece %d: %w", s, stage, op, op.Piece, errs.ErrIncompatible)
	}
	switch op.Kind {
	case F:
	case B:
		if s.SplitBW {
			return fmt.Errorf("sched: %s stage %d: fused %s in split schedule: %w", s, stage, op, errs.ErrIncompatible)
		}
	case BAct:
		if !s.SplitBW {
			return fmt.Errorf("sched: %s stage %d: %s in fused schedule: %w", s, stage, op, errs.ErrIncompatible)
		}
	case W:
		if !s.SplitBW || s.WPieces > 0 {
			return fmt.Errorf("sched: %s stage %d: unexpected whole %s: %w", s, stage, op, errs.ErrIncompatible)
		}
	case WPiece:
		if !s.SplitBW || s.WPieces == 0 || op.Piece < 0 || op.Piece >= s.WPieces {
			return fmt.Errorf("sched: %s stage %d: unexpected %s: %w", s, stage, op, errs.ErrIncompatible)
		}
	default:
		return fmt.Errorf("sched: %s stage %d: unknown kind in %s: %w", s, stage, op, errs.ErrIncompatible)
	}
	return nil
}

// checkAcyclic ranks the ops with Topo.Sort over the schedule's cached
// dependency table and the program-order chains p loaded. The loaded
// lists are the whole universe and AbsentDep has ruled out a dependency
// outside the shape, so every dependency names a scheduled op.
func (s *Schedule) checkAcyclic(p *Program) error {
	t := s.DepTable()
	total := len(p.Next)
	unmet := make([]int32, total) // unranked predecessors, per op
	var o Topo
	if o.Sort(t, p.Next, unmet) == total {
		return nil
	}
	// Report the first stuck op in stage-list order. A loaded op is its
	// id's own op, so decoding the id names it.
	for _, id := range p.IDs {
		if unmet[id] > 0 {
			k, op := t.Ix.At(id)
			return fmt.Errorf("sched: %s deadlocks: op %s@stage%d is on a dependency cycle: %w", s, op, k, errs.ErrUncertified)
		}
	}
	return nil
}
