package verify_test

import (
	"math/rand"
	"testing"

	"mepipe/internal/opt"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// TestCertifyAllocs pins the full certifier's allocation profile on
// one-stage moves, a machine-independent floor for its cost: proposals
// drawn from the discovered artifact's schedule (swaps and displacements
// of up to 8 positions), certified as callers that need the
// counterexample certify them. A rejected proposal may allocate
// little beyond the *CycleError it returns; an accepted one only its
// certificate.
func TestCertifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const maxRejected, maxAccepted = 12, 5
	a, err := opt.Discovered()
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.DiscoveredSchedule()
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Budget: a.Budget()}
	rng := rand.New(rand.NewSource(1))
	var rejected, accepted int
	for i := 0; i < 200; i++ {
		s, _ := proposal(rng, base)
		_, err := verify.Certify(s, opts)
		limit := float64(maxAccepted)
		if err != nil {
			limit = maxRejected
			rejected++
		} else {
			accepted++
		}
		if n := testing.AllocsPerRun(10, func() { verify.Certify(s, opts) }); n > limit {
			t.Fatalf("proposal %d (certify error %v) allocates %v per Certify, want <= %v", i, err, n, limit)
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("want both outcomes, got %d rejected and %d accepted proposals", rejected, accepted)
	}
}

// proposal applies one random swap or displacement of up to 8 positions
// to a copy of base's header that clones the moved stage and shares the
// others, as the optimizer builds its proposals, and returns the stage.
func proposal(rng *rand.Rand, base *sched.Schedule) (*sched.Schedule, int) {
	move := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	k := int(move[0]&0x7f) % base.P
	s := *base
	s.Stages = append([][]sched.Op(nil), base.Stages...)
	s.Stages[k] = append([]sched.Op(nil), base.Stages[k]...)
	verify.ApplyMove(&s, move)
	return &s, k
}
