package verify

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/memplan"
	"mepipe/internal/sched"
)

// mustDAPPLE builds a small DAPPLE schedule for mutation tests.
func mustDAPPLE(t *testing.T, p, n int) *sched.Schedule {
	t.Helper()
	s, err := sched.DAPPLE(p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCycleCounterexample hand-builds deadlocking orders and asserts the
// reported cycle is real, minimal, and names the ops on it.
func TestCycleCounterexample(t *testing.T) {
	t.Run("reversed-stage0", func(t *testing.T) {
		// Putting stage 0's backwards before its forwards makes B0
		// wait (transitively) on F0, which program order places after
		// it — a classic cross-stage deadlock.
		s := mustDAPPLE(t, 2, 2)
		ops := s.Stages[0]
		rev := make([]sched.Op, 0, len(ops))
		var bs, fs []sched.Op
		for _, op := range ops {
			if op.Kind == sched.B {
				bs = append(bs, op)
			} else {
				fs = append(fs, op)
			}
		}
		rev = append(append(rev, bs...), fs...)
		s.Stages[0] = rev

		_, err := Certify(s, Options{})
		if err == nil {
			t.Fatal("certified a deadlocking order")
		}
		var ce *CycleError
		if !errors.As(err, &ce) {
			t.Fatalf("want *CycleError, got %T (%v)", err, err)
		}
		if !errors.Is(err, errs.ErrUncertified) {
			t.Error("cycle error does not wrap ErrUncertified")
		}
		if len(ce.Cycle) < 2 {
			t.Fatalf("degenerate cycle %v", ce.Cycle)
		}
		// The counterexample must be a real cycle: every consecutive
		// pair connected by program order or a dependency.
		assertRealCycle(t, s, ce)
		// Minimality here: the shortest deadlock in this mutation is
		// B0@0 before F0@0 in program order while B0 (transitively)
		// needs F0 — the cycle must stay small, not enumerate the
		// whole residual graph.
		if len(ce.Cycle) > 4 {
			t.Errorf("cycle of %d nodes is not minimal: %v", len(ce.Cycle), ce.Cycle)
		}
		msg := err.Error()
		if !strings.Contains(msg, "deadlocks") || !strings.Contains(msg, "->") {
			t.Errorf("counterexample message not actionable: %q", msg)
		}
	})

	t.Run("swapped-pair", func(t *testing.T) {
		// The smallest mutation: swap one F with the B scheduled
		// right before it needs to be.
		s := mustDAPPLE(t, 2, 4)
		ops := s.Stages[1]
		fi, bi := -1, -1
		for i, op := range ops {
			if op.Kind == sched.F && op.Micro == 0 && fi < 0 {
				fi = i
			}
			if op.Kind == sched.B && op.Micro == 0 && bi < 0 {
				bi = i
			}
		}
		ops[fi], ops[bi] = ops[bi], ops[fi]
		_, err := Certify(s, Options{})
		var ce *CycleError
		if !errors.As(err, &ce) {
			t.Fatalf("want *CycleError, got %T (%v)", err, err)
		}
		assertRealCycle(t, s, ce)
		if len(ce.Cycle) != 2 {
			t.Errorf("swapping F0/B0 on one stage is a 2-cycle, got %d: %v", len(ce.Cycle), ce.Cycle)
		}
	})
}

// assertRealCycle checks every consecutive counterexample pair is an
// actual edge (program order on the same stage, or a sched.Deps edge).
func assertRealCycle(t *testing.T, s *sched.Schedule, ce *CycleError) {
	t.Helper()
	pos := map[Node]int{}
	for k, ops := range s.Stages {
		for i, op := range ops {
			pos[Node{k, op}] = i
		}
	}
	var deps []sched.Dep
	for i := range ce.Cycle {
		a, b := ce.Cycle[i], ce.Cycle[(i+1)%len(ce.Cycle)]
		// Program order: same stage, a immediately before b.
		if a.Stage == b.Stage && pos[b] == pos[a]+1 {
			continue
		}
		// Data edge: a is among b's dependencies.
		ok := false
		deps = s.Deps(deps[:0], b.Stage, b.Op)
		for _, d := range deps {
			if d.Stage == a.Stage && d.Op == a.Op {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("counterexample edge %v -> %v is not a real edge", a, b)
		}
	}
}

// TestBudgetCounterexample hand-builds an over-budget schedule (GPipe
// retains all n forwards) and asserts the reported overflow op and slot
// count.
func TestBudgetCounterexample(t *testing.T) {
	p, n := 2, 6
	s, err := sched.GPipe(p, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	// GPipe peaks at n live micro-batches per stage; budget n−2 must
	// overflow at the (n−1)'th forward.
	bound := []int{n - 2, n - 2}
	_, err = Certify(s, Options{Budget: SlotBudget(bound)})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %T (%v)", err, err)
	}
	if be.Op.Kind != sched.F {
		t.Errorf("overflow op %v, want a forward", be.Op)
	}
	if be.Live != int64(n-1) || be.Budget != int64(n-2) {
		t.Errorf("counterexample says %d > %d, want %d > %d", be.Live, be.Budget, n-1, n-2)
	}
	if be.Families != n-1 {
		t.Errorf("counterexample live families %d, want %d", be.Families, n-1)
	}
	if msg := be.Error(); !strings.Contains(msg, "exceeds budget") || !strings.Contains(msg, "F[") {
		t.Errorf("counterexample message not actionable: %q", msg)
	}

	// The exact peak certifies.
	if _, err := Certify(s, Options{Budget: SlotBudget([]int{n, n})}); err != nil {
		t.Fatalf("GPipe does not certify at its own peak: %v", err)
	}
}

// TestIncompleteAndMissing covers the completeness counterexamples.
func TestIncompleteAndMissing(t *testing.T) {
	t.Run("missing-backward", func(t *testing.T) {
		s := mustDAPPLE(t, 2, 2)
		// Drop stage 1's last backward: its F family is incomplete.
		ops := s.Stages[1]
		for i := len(ops) - 1; i >= 0; i-- {
			if ops[i].Kind == sched.B {
				s.Stages[1] = append(ops[:i:i], ops[i+1:]...)
				break
			}
		}
		_, err := Certify(s, Options{})
		var ie *IncompleteError
		if !errors.As(err, &ie) {
			t.Fatalf("want *IncompleteError, got %T (%v)", err, err)
		}
		if ie.Missing.Kind != sched.B {
			t.Errorf("missing op %v, want a backward", ie.Missing)
		}
	})

	t.Run("duplicate-op", func(t *testing.T) {
		s := mustDAPPLE(t, 2, 2)
		s.Stages[0] = append(s.Stages[0], s.Stages[0][0])
		_, err := Certify(s, Options{})
		var se *ShapeError
		if !errors.As(err, &se) {
			t.Fatalf("want *ShapeError, got %T (%v)", err, err)
		}
	})

	t.Run("stray-piece", func(t *testing.T) {
		// A piece number on a forward aliases the forward's own id, so
		// only the shape check can see it.
		s := mustDAPPLE(t, 2, 2)
		s.Stages[1][0].Piece = 7
		_, err := Certify(s, Options{})
		var se *ShapeError
		if !errors.As(err, &se) {
			t.Fatalf("want *ShapeError, got %T (%v)", err, err)
		}
		if want := "stage 1: op F[m0 s0 c0] carries weight-gradient piece 7"; se.Detail != want {
			t.Errorf("detail %q, want %q", se.Detail, want)
		}
	})

	t.Run("assume-complete-out-of-range", func(t *testing.T) {
		// Tables whose op universe is not the shape's: each is rejected
		// with the same counterexample with or without AssumeComplete.
		cases := []struct {
			name   string
			mutate func(s *sched.Schedule)
			want   error // its type; the value is Certify's
		}{
			{"dropped-last-backward", func(s *sched.Schedule) {
				// Stage 0 hosts the first chunk, so nothing depends on its
				// backwards: dropping one leaves no dangling dependency.
				ops := s.Stages[0]
				for i := len(ops) - 1; i >= 0; i-- {
					if ops[i].Kind == sched.B {
						s.Stages[0] = append(ops[:i:i], ops[i+1:]...)
						return
					}
				}
			}, &IncompleteError{}},
			{"duplicate-op", func(s *sched.Schedule) {
				s.Stages[0] = append(s.Stages[0], s.Stages[0][0])
			}, &ShapeError{}},
			{"stray-piece", func(s *sched.Schedule) {
				s.Stages[1][0].Piece = 7
			}, &ShapeError{}},
			{"out-of-range-forward", func(s *sched.Schedule) {
				// A dependency-free forward of a micro-batch the shape does
				// not have.
				s.Stages[0] = append(s.Stages[0], sched.Op{Kind: sched.F, Micro: 5})
			}, &ShapeError{}},
		}
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				s := mustDAPPLE(t, 2, 2)
				c.mutate(s)
				_, want := Certify(s, Options{})
				if reflect.TypeOf(want) != reflect.TypeOf(c.want) {
					t.Fatalf("Certify returned %T (%v), want %T", want, want, c.want)
				}
				if _, err := Certify(s, Options{AssumeComplete: true}); !reflect.DeepEqual(err, want) {
					t.Errorf("AssumeComplete returned %v, want %v", err, want)
				}
			})
		}
	})

	t.Run("nil-schedule", func(t *testing.T) {
		if _, err := Certify(nil, Options{}); !errors.Is(err, errs.ErrUncertified) {
			t.Fatalf("nil schedule: %v", err)
		}
	})
}

// TestPlanBudget certifies against a real memory plan through the
// Footprints seam using synthetic byte footprints.
func TestPlanBudget(t *testing.T) {
	p, n := 2, 4
	s := mustDAPPLE(t, p, n)
	plan := &memplan.Plan{
		Capacity:  1 << 20,
		ActBudget: []int64{4 << 10, 4 << 10},
	}
	b := PlanBudget(plan, constFootprints{act: 1 << 10})
	cert, err := Certify(s, Options{Budget: b})
	if err != nil {
		t.Fatalf("DAPPLE at 1 KiB/family does not fit 4 KiB budgets: %v", err)
	}
	if cert.PeakBytes[0] != int64(p)<<10 {
		t.Errorf("stage 0 peak %d bytes, want %d", cert.PeakBytes[0], p<<10)
	}

	plan.ActBudget = []int64{1 << 10, 4 << 10}
	if _, err := Certify(s, Options{Budget: PlanBudget(plan, constFootprints{act: 1 << 10})}); err == nil {
		t.Fatal("certified past a 1-family byte budget")
	}
}

type constFootprints struct{ act int64 }

func (c constFootprints) ActBytes(stage int, f sched.Op) int64  { return c.act }
func (c constFootprints) GradBytes(stage int, b sched.Op) int64 { return 0 }

// offGrid is a round-robin placement whose host map sends global chunk 1
// off the pipeline, so dependency rows carry out-of-shape entries.
type offGrid struct{ sched.RoundRobin }

func (o offGrid) Host(g int) (int, int) {
	if g == 1 {
		return o.P, 0
	}
	return o.RoundRobin.Host(g)
}

// offGridDAPPLE is DAPPLE(2,2)'s stage lists on a fresh Schedule (the
// dependency-table cache is keyed by shape, not by placement) whose
// placement sends global chunk 1 off the grid.
func offGridDAPPLE(t *testing.T) *sched.Schedule {
	t.Helper()
	s := mustDAPPLE(t, 2, 2)
	return &sched.Schedule{Name: s.Name, P: 2, V: 1, S: 1, N: 2,
		Place: offGrid{sched.RoundRobin{P: 2, V: 1}}, Stages: s.Stages}
}

// TestMissingDepMessage pins the absent-dependency counterexample: the
// first dependency, in stage-list order, that falls outside the shape.
func TestMissingDepMessage(t *testing.T) {
	_, err := Certify(offGridDAPPLE(t), Options{})
	var me *MissingDepError
	if !errors.As(err, &me) {
		t.Fatalf("want *MissingDepError, got %T (%v)", err, err)
	}
	const want = "verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: B[m0 s0 c0]@stage0 depends on B[m0 s0 c0]@stage2, which is not scheduled (no sender)"
	if got := err.Error(); got != want {
		t.Fatalf("got  %q\nwant %q", got, want)
	}
}
