package sched_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// The generator-validity checks: each generated schedule must certify
// (verify.Certify without a budget: complete and deadlock-free), as
// FuzzGenerateShapes requires of arbitrary small shapes.

// TestSVPPPropertyValid is the core property test: for random shapes and
// memory knobs, SVPP generation must always succeed and produce a complete,
// deadlock-free schedule in every mode combination.
func TestSVPPPropertyValid(t *testing.T) {
	type shape struct {
		P, V, S, N, F uint8
		Resched       bool
		Split         bool
		Pieces        uint8
	}
	check := func(sh shape) bool {
		p := int(sh.P)%6 + 1
		v := int(sh.V)%3 + 1
		s := int(sh.S)%4 + 1
		n := int(sh.N)%6 + 1
		f := int(sh.F) % (v*s*p + 2) // may be under the v·s minimum: must clamp
		pieces := 0
		if sh.Split {
			pieces = int(sh.Pieces)%4 + 1
		}
		sch, err := sched.SVPP(sched.SVPPOptions{
			P: p, V: v, S: s, N: n, F: f,
			Reschedule: sh.Resched, Split: sh.Split, FineGrainedW: pieces,
		})
		if err == nil {
			_, err = verify.Certify(sch, verify.Options{})
		}
		if err != nil {
			t.Logf("SVPP(p=%d v=%d s=%d n=%d f=%d split=%v pieces=%d): %v",
				p, v, s, n, f, sh.Split, pieces, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// skewEst gives each slice a different forward cost, mimicking causal
// attention imbalance (§5's motivating scenario: slice 0 at 75% of slice 1).
type skewEst struct{}

func (skewEst) OpTime(stage int, op sched.Op) float64 {
	base := 0.75 + 0.25*float64(op.Slice)
	switch op.Kind {
	case sched.F:
		return base
	case sched.B:
		return 2 * base
	case sched.BAct:
		return base
	case sched.W, sched.WPiece:
		return 0.75
	}
	return 0
}
func (skewEst) CommTime(from, to int, op sched.Op) float64 { return 0.02 }

func TestGenerateWithImbalancedSlices(t *testing.T) {
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 4, Est: skewEst{}, Split: true, FineGrainedW: 4, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Certify(s, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestForceProgressPath: deep virtual pipelines under tight caps must
// engage stall recovery and still produce valid schedules (the shapes the
// original greedy deadlocked on).
func TestForceProgressPath(t *testing.T) {
	for _, f := range []int{5, 6, 7} {
		s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 3, S: 1, N: 4, F: f})
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if _, err := verify.Certify(s, verify.Options{}); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
	}
}

// The broken-table checks: verify.Certify is the structural verdict that
// names a counterexample, so each broken DAPPLE(2,2) table must fail it
// with the typed error for its fault, wrapping errs.ErrUncertified.

func mustDAPPLE(t *testing.T) *sched.Schedule {
	t.Helper()
	s, err := sched.DAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireRejects certifies s and requires the counterexample type of
// target, which also wraps errs.ErrUncertified.
func requireRejects(t *testing.T, s *sched.Schedule, target any, what string) {
	t.Helper()
	_, err := verify.Certify(s, verify.Options{})
	if err == nil {
		t.Fatalf("Certify accepted a schedule with %s", what)
	}
	if !errors.As(err, target) || !errors.Is(err, errs.ErrUncertified) {
		t.Fatalf("%s: Certify = %T (%v), want %T wrapping ErrUncertified", what, err, err, target)
	}
}

// stage0BackwardsFirst puts all of stage 0's backwards before its
// forwards, which deadlocks against stage 1 (B needs grads that need
// stage 0's forwards).
func stage0BackwardsFirst(s *sched.Schedule) {
	var reordered []sched.Op
	for _, kind := range []sched.Kind{sched.B, sched.F} {
		for _, op := range s.Stages[0] {
			if op.Kind == kind {
				reordered = append(reordered, op)
			}
		}
	}
	s.Stages[0] = reordered
}

func TestValidateCatchesMissingOp(t *testing.T) {
	s := mustDAPPLE(t)
	s.Stages[0] = s.Stages[0][:len(s.Stages[0])-1]
	var ie *verify.IncompleteError
	requireRejects(t, s, &ie, "a missing op")
}

func TestValidateCatchesDuplicate(t *testing.T) {
	s := mustDAPPLE(t)
	s.Stages[0][len(s.Stages[0])-1] = s.Stages[0][0]
	var se *verify.ShapeError
	requireRejects(t, s, &se, "a duplicated op")
}

func TestValidateCatchesDeadlock(t *testing.T) {
	s := mustDAPPLE(t)
	stage0BackwardsFirst(s)
	var ce *verify.CycleError
	requireRejects(t, s, &ce, "a deadlocking order")
}

func TestValidateCatchesFusedSplitMismatch(t *testing.T) {
	s := mustDAPPLE(t)
	s.SplitBW = true // claims split but contains fused B ops
	var se *verify.ShapeError
	requireRejects(t, s, &se, "fused ops in a split schedule")
}

// offGrid is a round-robin placement whose host map sends global chunk 1
// off the pipeline, so dependency rows carry out-of-shape entries.
type offGrid struct{ sched.RoundRobin }

func (o offGrid) Host(g int) (int, int) {
	if g == 1 {
		return o.P, 0
	}
	return o.RoundRobin.Host(g)
}

// TestValidateMessages pins the certifier's text for the structural
// faults: a deadlocking order names a minimal cycle, an absent dependency
// the first op, in stage-list order, whose dependency decodes out of
// shape, and a stray weight-gradient piece the op that carries it.
func TestValidateMessages(t *testing.T) {
	cases := []struct {
		name  string
		build func() *sched.Schedule
		want  string
	}{
		{"deadlock", func() *sched.Schedule {
			s := mustDAPPLE(t)
			stage0BackwardsFirst(s)
			return s
		}, "verify: DAPPLE{p=2 v=1 s=1 n=2 split=false} deadlocks: dependency cycle of 3 ops: B[m0 s0 c0]@stage0 -order-> B[m1 s0 c0]@stage0 -order-> F[m0 s0 c0]@stage0 -dep-> B[m0 s0 c0]@stage0"},
		{"off grid", func() *sched.Schedule {
			s := mustDAPPLE(t)
			// A fresh Schedule: the DepTable cache is keyed by shape,
			// not by placement.
			return &sched.Schedule{Name: s.Name, P: 2, V: 1, S: 1, N: 2, Place: offGrid{sched.RoundRobin{P: 2, V: 1}}, Stages: s.Stages}
		}, "verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: B[m0 s0 c0]@stage0 depends on B[m0 s0 c0]@stage2, which is not scheduled (no sender)"},
		{"stray piece", func() *sched.Schedule {
			s := mustDAPPLE(t)
			s.Stages[1][0].Piece = 7
			return s
		}, "verify: DAPPLE{p=2 v=1 s=1 n=2 split=false}: stage 1: op F[m0 s0 c0] carries weight-gradient piece 7"},
	}
	for _, c := range cases {
		_, err := verify.Certify(c.build(), verify.Options{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Certify() = %v, want %q", c.name, err, c.want)
		}
	}
}
