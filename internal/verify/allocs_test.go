package verify_test

import (
	"math/rand"
	"testing"

	"mepipe/internal/opt"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
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

// TestDeltaAllocs is the move path's zero-allocation test, on the
// proposals TestCertifyAllocs draws: after binding, resolving a move's
// window in a simulator overlay, sweeping it through Delta and evaluating
// it allocate nothing, and neither does committing it and its inverse.
// Its verdicts must be Certify's.
func TestDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	a, err := opt.Discovered()
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.DiscoveredSchedule()
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Budget: a.Budget()}
	se, err := sim.NewSession(sim.Options{Sched: base, Costs: a.Costs(), AssumeValid: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Eval(base); err != nil {
		t.Fatal(err)
	}
	ov, err := se.NewOverlay()
	if err != nil {
		t.Fatal(err)
	}
	d := verify.NewDelta(a.Budget())
	if err := d.Bind(base); err != nil {
		t.Fatal(err)
	}
	decide := func(m sim.Move) bool {
		ids, err := ov.Load(m)
		if err != nil || !d.Fits(m.Stage, m.Lo, m.Ops, ids) {
			return false
		}
		_, err = ov.Eval()
		return err == nil
	}
	commit := func(m sim.Move) {
		ids, err := ov.Load(m)
		if err != nil || !d.Rebind(m.Stage, m.Lo, m.Ops, ids) {
			t.Fatalf("committing a feasible move: %v", err)
		}
		if err := se.Commit(m); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	var rejected, accepted int
	for i := 0; i < 200; i++ {
		s, k := proposal(rng, base)
		m, back, moved := moveWindow(base, s, k)
		if !moved {
			continue
		}
		ok := decide(m)
		if _, want := verify.Certify(s, opts); ok != (want == nil) {
			t.Fatalf("proposal %d: move says %v, Certify %v", i, ok, want)
		}
		if n := testing.AllocsPerRun(10, func() { decide(m) }); n != 0 {
			t.Fatalf("proposal %d (feasible %v) allocates %v per decision, want 0", i, ok, n)
		}
		if !ok {
			rejected++
			continue
		}
		accepted++
		if n := testing.AllocsPerRun(10, func() { commit(m); commit(back) }); n != 0 {
			t.Fatalf("proposal %d allocates %v per commit and undo, want 0", i, n)
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("want both outcomes, got %d rejected and %d accepted proposals", rejected, accepted)
	}
}

// moveWindow returns s's move of base on stage k, and its inverse: the
// positions where the stage lists differ, in s's order and in base's.
func moveWindow(base, s *sched.Schedule, k int) (m, back sim.Move, moved bool) {
	bops, cops := base.Stages[k], s.Stages[k]
	lo, hi := 0, len(cops)-1
	for lo <= hi && cops[lo] == bops[lo] {
		lo++
	}
	for hi >= lo && cops[hi] == bops[hi] {
		hi--
	}
	m = sim.Move{Stage: k, Lo: lo, Ops: cops[lo : hi+1]}
	back = sim.Move{Stage: k, Lo: lo, Ops: bops[lo : hi+1]}
	return m, back, lo <= hi
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
