package sim

import (
	"errors"
	"slices"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// boundOverlay binds a static session to s under the budget (nil for
// none), evaluates it and returns it with an overlay over it.
func boundOverlay(t *testing.T, s *sched.Schedule, budget []int64) (*Session, *Overlay) {
	t.Helper()
	se, err := NewSession(Options{Sched: s, Costs: Unit(), ActBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Eval(s); err != nil {
		t.Fatal(err)
	}
	ov, err := se.NewOverlay()
	if err != nil {
		t.Fatal(err)
	}
	return se, ov
}

// TestOverlayScope pins the sessions and moves an overlay refuses, each
// with a wrapped errs.ErrIncompatible: a dynamic or traced session; a
// session not yet evaluated; a session rebound to another shape of as
// many ops; a move off its stage or not a permutation of its window, and
// an Eval or Commit after such a Load; a loaded move whose session has
// since been written; and a Commit after a failed Eval or after the
// session was written, which leaves the session unchanged. A budgeted
// static session is in scope.
func TestOverlayScope(t *testing.T) {
	s, err := sched.ZB1P(3, 4, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Options{
		"dynamic": {Sched: s, Costs: Unit(), DynamicW: true},
		"traced":  {Sched: s, Costs: Unit(), Trace: obs.NewRecorder()},
	} {
		se, err := NewSession(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := se.NewOverlay(); !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("%s session: NewOverlay returned %v", name, err)
		}
	}
	budgeted, err := NewSession(Options{Sched: s, Costs: Unit(), ActBudget: []int64{9, 9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := budgeted.NewOverlay(); err != nil {
		t.Errorf("budgeted session: NewOverlay returned %v", err)
	}
	fresh, err := NewSession(Options{Sched: s, Costs: Unit()})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := fresh.NewOverlay()
	if err != nil {
		t.Fatal(err)
	}
	ops := s.Stages[1]
	swap := Move{Stage: 1, Lo: 2, Ops: []sched.Op{ops[3], ops[2]}}
	if err := ov.Load(swap); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("unevaluated session: Load returned %v", err)
	}
	se, ov := boundOverlay(t, s, nil)
	for name, m := range map[string]Move{
		"stage":     {Stage: 3, Lo: 2, Ops: swap.Ops},
		"past":      {Stage: 1, Lo: len(ops) - 1, Ops: swap.Ops},
		"empty":     {Stage: 1, Lo: 2},
		"outside":   {Stage: 1, Lo: 2, Ops: []sched.Op{ops[3], ops[5]}},
		"duplicate": {Stage: 1, Lo: 2, Ops: []sched.Op{ops[2], ops[2]}},
		"misfit":    {Stage: 1, Lo: 2, Ops: []sched.Op{{Kind: sched.F, Micro: 99}, ops[2]}},
	} {
		if err := ov.Load(m); !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("%s: Load returned %v", name, err)
		}
		if _, err := ov.Eval(); !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("%s: Eval after a failed Load returned %v", name, err)
		}
		if err := ov.Commit(); !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("%s: Commit after a failed Load returned %v", name, err)
		}
	}
	if err := ov.Load(swap); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Eval(s); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Eval(); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("stale load: Eval returned %v", err)
	}

	// Commit publishes only a successful Eval of the current session.
	var feasible, cyclic *Move
	for i := 0; i+1 < len(ops) && (feasible == nil || cyclic == nil); i++ {
		m := Move{Stage: 1, Lo: i, Ops: []sched.Op{ops[i+1], ops[i]}}
		if err := ov.Load(m); err != nil {
			t.Fatal(err)
		}
		switch _, err := ov.Eval(); {
		case err == nil && feasible == nil:
			feasible = &m
		case errors.Is(err, errs.ErrUncertified) && cyclic == nil:
			cyclic = &m
		}
	}
	if feasible == nil || cyclic == nil {
		t.Fatal("stage 1 has no feasible or no cyclic adjacent swap")
	}
	finish := append([]float64(nil), se.finish...)
	order := append([]int32(nil), se.topo.Order...)
	if err := ov.Load(*cyclic); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Eval(); !errors.Is(err, errs.ErrUncertified) {
		t.Fatalf("cyclic swap: Eval returned %v", err)
	}
	if err := ov.Commit(); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("Commit after a failed Eval returned %v", err)
	}
	if err := ov.Load(*feasible); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Eval(); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Eval(s); err != nil {
		t.Fatal(err)
	}
	if err := ov.Commit(); !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("Commit after a session write returned %v", err)
	}
	if !slices.Equal(se.finish, finish) || !slices.Equal(se.topo.Order, order) {
		t.Error("a refused Commit wrote the session")
	}

	// A session rebound to another shape with as many ops: DAPPLE(2, 4)
	// and DAPPLE(4, 2) both have 16.
	d24, err := sched.DAPPLE(2, 4, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	d42, err := sched.DAPPLE(4, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	rebound, ov := boundOverlay(t, d24, nil)
	if err := rebound.Bind(Options{Sched: d42, Costs: Unit()}); err != nil {
		t.Fatal(err)
	}
	if _, err := rebound.Eval(d42); err != nil {
		t.Fatal(err)
	}
	for k, ops := range d42.Stages {
		for i := 0; i+1 < len(ops); i++ {
			if err := ov.Load(Move{Stage: k, Lo: i, Ops: []sched.Op{ops[i+1], ops[i]}}); !errors.Is(err, errs.ErrIncompatible) {
				t.Fatalf("rebound to DAPPLE(4, 2): Load of stage %d swap at %d returned %v", k, i, err)
			}
		}
	}
}

// TestOverlayRejectsBeforeSolve pins that a move that deadlocks is
// rejected by its interval sort, with a wrapped errs.ErrUncertified, and,
// under an ActBudget at each stage's own peak, one that raises a stage's
// peak by its stage walk, with a wrapped errs.ErrOOM, both before any op
// is re-solved; and that neither they nor a feasible move write the bound
// state.
func TestOverlayRejectsBeforeSolve(t *testing.T) {
	s, err := sched.DAPPLE(4, 6, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Options{Sched: s, Costs: Unit()})
	if err != nil {
		t.Fatal(err)
	}
	peaks := make([]int64, s.P)
	for k, st := range r.Stages {
		peaks[k] = st.PeakAct
	}
	for _, budget := range [][]int64{nil, peaks} {
		se, ov := boundOverlay(t, s, budget)
		want := se.res.Clone()
		finish := append([]float64(nil), se.finish...)
		cyclic, oom, feasible := 0, 0, 0
		for k, ops := range s.Stages {
			for i := 0; i+1 < len(ops); i++ {
				m := Move{Stage: k, Lo: i, Ops: []sched.Op{ops[i+1], ops[i]}}
				if err := ov.Load(m); err != nil {
					t.Fatal(err)
				}
				_, err := ov.Eval()
				switch {
				case err == nil:
					feasible++
					continue
				case errors.Is(err, errs.ErrUncertified):
					cyclic++
				case errors.Is(err, errs.ErrOOM):
					oom++
				default:
					t.Fatal(err)
				}
				if ov.pending != 0 {
					t.Fatalf("stage %d swap at %d: %d ops pending after a rejection", k, i, ov.pending)
				}
				for _, ep := range ov.dirty {
					if ep == ov.ep {
						t.Fatalf("stage %d swap at %d: a rejected move re-solved an op", k, i)
					}
				}
			}
		}
		if cyclic == 0 || feasible == 0 || (oom == 0) != (budget == nil) {
			t.Fatalf("budget %v: got %d cyclic, %d over-budget and %d feasible swaps", budget, cyclic, oom, feasible)
		}
		r, err := se.Eval(s)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, r, "the bound state after the moves")
		for id, f := range finish {
			if se.finish[id] != f {
				t.Fatalf("op %d's bound finish moved", id)
			}
		}
	}
}

// TestOverlayRefusesOverBudgetState pins that an overlay on a session
// whose bound order already exceeds one stage's ActBudget evaluates no
// move of another stage: each moved schedule is one sim.Run marks OOM,
// which the overlay refuses with a wrapped errs.ErrOOM.
func TestOverlayRefusesOverBudgetState(t *testing.T) {
	s, err := sched.DAPPLE(4, 6, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Options{Sched: s, Costs: Unit()})
	if err != nil {
		t.Fatal(err)
	}
	budget := make([]int64, s.P)
	for k, st := range r.Stages {
		budget[k] = st.PeakAct
	}
	budget[0]--
	_, ov := boundOverlay(t, s, budget)
	oom := 0
	for k := 1; k < s.P; k++ {
		ops := s.Stages[k]
		for i := 0; i+1 < len(ops); i++ {
			if err := ov.Load(Move{Stage: k, Lo: i, Ops: []sched.Op{ops[i+1], ops[i]}}); err != nil {
				t.Fatal(err)
			}
			switch _, err := ov.Eval(); {
			case errors.Is(err, errs.ErrOOM):
				oom++
			case !errors.Is(err, errs.ErrUncertified):
				t.Fatalf("stage %d swap at %d: Eval returned %v, want a wrapped errs.ErrOOM", k, i, err)
			}
		}
	}
	if oom == 0 {
		t.Fatal("no swap reached the budget verdict")
	}
}
