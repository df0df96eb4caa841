package verify_test

import (
	"math/rand"
	"testing"

	"mepipe/internal/opt"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// TestCertifyAllocs pins certification's allocation profile on the
// optimizer's inner loop, a machine-independent floor for its cost:
// proposals drawn from the discovered artifact's schedule (swaps and
// displacements of up to 8 positions), certified as the annealer
// certifies them. A rejected proposal may allocate little beyond the
// *CycleError it returns; an accepted one only its certificate.
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
	opts := verify.Options{Budget: a.Budget(), AssumeComplete: true}
	rng := rand.New(rand.NewSource(1))
	var rejected, accepted int
	for i := 0; i < 200; i++ {
		s := proposal(rng, base)
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

// proposal copies base and applies one random swap or displacement of
// up to 8 positions on one stage.
func proposal(rng *rand.Rand, base *sched.Schedule) *sched.Schedule {
	s := *base
	s.Stages = make([][]sched.Op, len(base.Stages))
	for k := range base.Stages {
		s.Stages[k] = append([]sched.Op(nil), base.Stages[k]...)
	}
	verify.ApplyMove(&s, []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	return &s
}
