package opt

import (
	"math/rand"
	"reflect"
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// countingCosts wraps a cost model and counts OpTime calls — the probe
// that proves infeasible candidates never reach the simulator.
type countingCosts struct {
	sim.Costs
	opCalls int
}

func (c *countingCosts) OpTime(stage int, op sched.Op) float64 {
	c.opCalls++
	return c.Costs.OpTime(stage, op)
}

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
// split and fine-grained bases, each candidate either certifies (under
// AssumeComplete, soundly — the multiset is proven preserved below) or
// is rejected before a single simulated op runs.
func TestMovesCertifyOrRejectBeforeSim(t *testing.T) {
	operators := []struct {
		name  string
		apply func(rng *rand.Rand, c *candidate)
	}{
		{"swap", func(rng *rand.Rand, c *candidate) { proposeSwap(rng, c) }},
		{"shift", func(rng *rand.Rand, c *candidate) { proposeShift(rng, c, 8) }},
		{"rebalance", func(rng *rand.Rand, c *candidate) { proposeRebalance(rng, c, 8) }},
	}
	for _, base := range moveBases(t) {
		budget := slackBudget(t, base)
		baseSet := opMultiset(base)
		for _, op := range operators {
			rng := rand.New(rand.NewSource(42))
			counter := &countingCosts{Costs: sim.Unit()}
			var sess *sim.Session
			for i := 0; i < 500; i++ {
				c := candidate{sched: cloneSchedule(base)}
				op.apply(rng, &c)

				// Every operator preserves the op multiset — the
				// property that makes AssumeComplete sound.
				if !reflect.DeepEqual(baseSet, opMultiset(c.sched)) {
					t.Fatalf("%s on %s: proposal %d changed the op multiset", op.name, base.Name, i)
				}
				// AssumeComplete certification must agree with the full
				// check on multiset-preserving candidates.
				_, fastErr := verify.Certify(c.sched, verify.Options{Budget: budget, AssumeComplete: true})
				_, fullErr := verify.Certify(c.sched, verify.Options{Budget: budget})
				if (fastErr == nil) != (fullErr == nil) {
					t.Fatalf("%s on %s: AssumeComplete disagrees with full certification: fast=%v full=%v",
						op.name, base.Name, fastErr, fullErr)
				}

				before := counter.opCalls
				evaluate(&c, counter, budget, &sess)
				if fastErr != nil {
					if c.feasible {
						t.Fatalf("%s on %s: uncertified candidate marked feasible", op.name, base.Name)
					}
					if counter.opCalls != before {
						t.Fatalf("%s on %s: uncertified candidate was simulated (%d OpTime calls)",
							op.name, base.Name, counter.opCalls-before)
					}
				} else if !c.feasible {
					t.Fatalf("%s on %s: certified candidate marked infeasible", op.name, base.Name)
				}
			}
		}
	}
}

// slackBudget certifies the base and allows one extra family of slack,
// so proposals near the boundary exercise both accept and reject paths.
func slackBudget(t *testing.T, s *sched.Schedule) *verify.Budget {
	t.Helper()
	cert, err := verify.Certify(s, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]int, len(cert.PeakFamilies))
	for k, p := range cert.PeakFamilies {
		slots[k] = p + 1
	}
	return verify.SlotBudget(slots)
}

// TestProposeConsumesFixedRandomness pins that a proposal's rng draw
// count never depends on the candidate's content — the invariant that
// keeps the whole trajectory reproducible — and that proposals, which
// share every stage they do not perturb, never write through to the
// schedule they were drawn from.
func TestProposeConsumesFixedRandomness(t *testing.T) {
	base := moveBases(t)[0]
	orig := cloneSchedule(base)
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		propose(r1, base, 8)
		propose(r2, base, 8)
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
