package strategy

import (
	"context"
	"math"
	"runtime"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/opt"
)

// optimize13B is the annealer's large point: the best MEPipe plan for
// Llama-13B on 32 RTX 4090s (PP=8, DP=4, SPP=4, N=16; 4,608 ops), annealed
// with default options under the plan's byte-accurate budget.
func optimize13B(tb testing.TB) *Optimized {
	tb.Helper()
	par := config.Parallel{PP: 8, DP: 4, CP: 1, SPP: 4, VP: 1}
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	o, err := OptimizeContext(context.Background(), MEPipe, config.Llama13B(), cluster.RTX4090Cluster(4), par, tr, opt.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return o
}

// BenchmarkOptimize13B times one default annealing run at the 13B point.
func BenchmarkOptimize13B(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		optimize13B(b)
	}
}

// TestOptimize13BPinned pins BenchmarkOptimize13B's search: its counters
// and best time, bitwise. A faster evaluation or certification path must
// walk exactly the same trajectory.
func TestOptimize13BPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("a full annealing run at the 13B point")
	}
	r := optimize13B(t).Opt
	got := [4]int{r.Proposed, r.Infeasible, r.Evaluated, r.Accepted}
	if want := [4]int{6000, 2292, 3708, 1447}; got != want {
		t.Errorf("proposed/infeasible/evaluated/accepted = %v, want %v", got, want)
	}
	if want := 5.793790741130597; math.Float64bits(r.BestTime) != math.Float64bits(want) {
		t.Errorf("best time %v, want %v", r.BestTime, want)
	}
}

// TestOptimize13BBytes: one BenchmarkOptimize13B run allocates at most
// 3 MB on one core. It allocated 154 MB while every annealer proposal
// copied its stage list.
func TestOptimize13BBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("a full annealing run at the 13B point")
	}
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	optimize13B(t) // fill the pools, as a benchmark's first run does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	optimize13B(t)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("%.2f MB per run", mb)
	if mb > 3 {
		t.Fatalf("an annealing run at the 13B point allocates %.2f MB, want at most 3 MB", mb)
	}
}
