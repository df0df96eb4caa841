package opt

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

func moveBases(t *testing.T) []*sched.Schedule {
	t.Helper()
	est := sched.Unit()
	dapple, err := sched.DAPPLE(4, 6, est)
	if err != nil {
		t.Fatal(err)
	}
	zb, err := sched.ZB1P(4, 6, est)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 4, F: 4, Split: true, FineGrainedW: 2, Est: est})
	if err != nil {
		t.Fatal(err)
	}
	return []*sched.Schedule{dapple, zb, fine}
}

// TestMovesCertifyOrRejectBeforeSim is the neighbourhood property test:
// for thousands of seeded proposals from every operator over fused,
// split and fine-grained bases, each move preserves the base's op
// multiset, and is feasible exactly when the moved schedule certifies.
// An infeasible move's overlay verdict is a wrapped errs.ErrOOM exactly
// when Certify's is a budget overflow. It returns before the overlay
// re-solves anything: the overlay's last Result is untouched, and so is
// the bound state, whose own evaluation stays bitwise what it was.
func TestMovesCertifyOrRejectBeforeSim(t *testing.T) {
	operators := []struct {
		name  string
		apply func(rng *rand.Rand, c *candidate, base *sched.Schedule)
	}{
		{"swap", func(rng *rand.Rand, c *candidate, base *sched.Schedule) { proposeSwap(rng, c, base) }},
		{"shift", func(rng *rand.Rand, c *candidate, base *sched.Schedule) {
			proposeShift(rng, c, base, rng.Intn(base.P), 8)
		}},
		{"rebalance", func(rng *rand.Rand, c *candidate, base *sched.Schedule) { proposeRebalance(rng, c, base, 8) }},
	}
	for _, base := range moveBases(t) {
		for _, slack := range []int{1, 0} {
			budget := slackBudget(t, base, slack)
			baseSet := opMultiset(base)
			for _, op := range operators {
				rng := rand.New(rand.NewSource(42))
				st := bindMoves(t, base, sim.Unit(), budget)
				bound, err := st.se.Eval(base)
				if err != nil {
					t.Fatal(err)
				}
				bound = bound.Clone()
				var last, lastSnap *sim.Result
				infeasible, overCap := 0, 0
				for i := 0; i < 500; i++ {
					var c candidate
					op.apply(rng, &c, base)
					cand := applied(base, &c)

					// Every operator preserves the op multiset: a one-stage
					// permutation of a window.
					if !reflect.DeepEqual(baseSet, opMultiset(cand)) {
						t.Fatalf("%s on %s: proposal %d changed the op multiset", op.name, base.Name, i)
					}
					_, certErr := verify.Certify(cand, verify.Options{Budget: budget})
					evaluate(&c, bound.IterTime, st.ov)
					if certErr == nil {
						if !c.feasible {
							t.Fatalf("%s on %s: certified candidate marked infeasible", op.name, base.Name)
						}
						if len(c.win) > 0 {
							last, _ = st.ov.Eval()
							lastSnap = last.Clone()
						}
						continue
					}
					infeasible++
					if c.feasible {
						t.Fatalf("%s on %s: uncertified candidate marked feasible", op.name, base.Name)
					}
					var be *verify.BudgetError
					_, err := st.ov.Eval()
					if oom := errors.Is(err, errs.ErrOOM); oom != errors.As(certErr, &be) {
						t.Fatalf("%s on %s: overlay says %v, Certify %v", op.name, base.Name, err, certErr)
					} else if oom {
						overCap++
					}
					if last != nil && !reflect.DeepEqual(last, lastSnap) {
						t.Fatalf("%s on %s: an infeasible move re-solved the overlay", op.name, base.Name)
					}
					if r, err := st.se.Eval(base); err != nil || !reflect.DeepEqual(r, bound) {
						t.Fatalf("%s on %s: an infeasible move changed the bound state: %v", op.name, base.Name, err)
					}
				}
				if infeasible == 0 || (slack == 0 && overCap == 0) {
					t.Errorf("%s on %s, slack %d: %d moves infeasible, %d over the budget; the test is vacuous", op.name, base.Name, slack, infeasible, overCap)
				}
			}
		}
	}
}

// slackBudget certifies the base and allows slack extra families on
// each stage, so proposals near the boundary exercise both accept and
// reject paths; at slack 0 every move that raises a stage's peak is over
// the budget.
func slackBudget(t *testing.T, s *sched.Schedule, slack int) *verify.Budget {
	t.Helper()
	cert, err := verify.Certify(s, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, len(cert.PeakFamilies))
	for k, p := range cert.PeakFamilies {
		slots[k] = p + slack
	}
	return verify.SlotBudget(slots)
}

// TestProposeConsumesFixedRandomness pins that a proposal's rng draw
// count never depends on the candidate's content — the invariant that
// keeps the whole trajectory reproducible — and that proposals, which
// copy only their window, never write through to the schedule they were
// drawn from.
func TestProposeConsumesFixedRandomness(t *testing.T) {
	base := moveBases(t)[0]
	orig := cloneSchedule(base)
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	var c1, c2 candidate
	for i := 0; i < 200; i++ {
		propose(r1, &c1, base, 8)
		propose(r2, &c2, base, 8)
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("after proposal %d the rng streams diverged", i)
		}
	}
	if !reflect.DeepEqual(base.Stages, orig.Stages) {
		t.Fatal("proposals mutated the schedule they were drawn from")
	}
}

// TestDisplaceRoundTrips sanity-checks the displacement helper.
func TestDisplaceRoundTrips(t *testing.T) {
	mk := func() []sched.Op {
		return []sched.Op{
			{Kind: sched.F, Micro: 0}, {Kind: sched.F, Micro: 1},
			{Kind: sched.F, Micro: 2}, {Kind: sched.F, Micro: 3},
		}
	}
	ops := mk()
	displace(ops, 0, 3)
	want := []sched.Op{{Kind: sched.F, Micro: 1}, {Kind: sched.F, Micro: 2}, {Kind: sched.F, Micro: 3}, {Kind: sched.F, Micro: 0}}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("forward displace: got %v", ops)
	}
	displace(ops, 3, 0)
	if !reflect.DeepEqual(ops, mk()) {
		t.Errorf("displace did not round-trip: got %v", ops)
	}
}
