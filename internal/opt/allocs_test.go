package opt

import (
	"context"
	"math/rand"
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// BenchmarkOptimizeArtifact times one op of the optimize benchmark
// workload: an Optimize run at the artifact point, 80 rounds of 4
// proposals under the artifact's budget, cycling through 32 seeds as the
// workload does.
func BenchmarkOptimizeArtifact(b *testing.B) {
	a := discoveredPoint()
	_, preset, err := a.BestPreset()
	if err != nil {
		b.Fatal(err)
	}
	costs, budget := a.Costs(), a.Budget()
	rng := rand.New(rand.NewSource(21))
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Seed: seeds[i%len(seeds)], Iters: 80, Proposals: 4, Budget: budget}
		if _, err := Optimize(context.Background(), preset, costs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOptimizeAllocs: a whole Optimize run at the artifact point, as the
// optimize benchmark workload runs it (80 rounds of 4 proposals), makes
// at most 150 allocations. It made about 1,050 while every proposal
// copied its stage list and was certified and simulated as a schedule of
// its own.
func TestOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	a := discoveredPoint()
	_, preset, err := a.BestPreset()
	if err != nil {
		t.Fatal(err)
	}
	costs, budget := a.Costs(), a.Budget()
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := Optimize(context.Background(), preset, costs, Options{Seed: seed, Iters: 80, Budget: budget}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per Optimize run at the artifact point", allocs)
	if allocs > 150 {
		t.Fatalf("Optimize at the artifact point: %.0f allocs, want at most 150", allocs)
	}
}

// TestMoveAllocs is the move path's zero-allocation test, on proposals the
// annealer draws from the discovered artifact's schedule under its
// budget: once the session is bound, deciding a move (an overlay Load and
// Eval) allocates nothing, and neither does deciding and committing it
// and its inverse, each from the overlay that evaluated it. Its verdicts
// must be Certify's.
func TestMoveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	a, err := Discovered()
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.DiscoveredSchedule()
	if err != nil {
		t.Fatal(err)
	}
	budget := a.Budget()
	st := bindMoves(t, base, a.Costs(), budget)
	accept := func(c *candidate, what string) {
		if evaluate(c, 0, st.ov); !c.feasible {
			t.Fatalf("%s is infeasible", what)
		}
		if err := commit(c, base, st.ov); err != nil {
			t.Fatalf("committing %s: %v", what, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	var c candidate
	var rejected, accepted int
	for i := 0; i < 200; i++ {
		propose(rng, &c, base, 8)
		if len(c.win) == 0 {
			continue
		}
		evaluate(&c, 0, st.ov)
		if _, want := verify.Certify(applied(base, &c), verify.Options{Budget: budget}); c.feasible != (want == nil) {
			t.Fatalf("proposal %d: move says %v, Certify %v", i, c.feasible, want)
		}
		if n := testing.AllocsPerRun(10, func() { evaluate(&c, 0, st.ov) }); n != 0 {
			t.Fatalf("proposal %d (feasible %v) allocates %v per decision, want 0", i, c.feasible, n)
		}
		if !c.feasible {
			rejected++
			continue
		}
		accepted++
		back := c
		back.win = append([]sched.Op(nil), base.Stages[c.stage][c.lo:c.lo+len(c.win)]...)
		if n := testing.AllocsPerRun(10, func() { accept(&c, "a feasible move"); accept(&back, "its inverse") }); n != 0 {
			t.Fatalf("proposal %d allocates %v per commit and undo, want 0", i, n)
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("want both outcomes, got %d rejected and %d accepted proposals", rejected, accepted)
	}
}
