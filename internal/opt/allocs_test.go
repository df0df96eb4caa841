package opt

import (
	"context"
	"math/rand"
	"testing"
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
