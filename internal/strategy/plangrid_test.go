package strategy

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
)

// planColdPoint is the cold /v1/search point of the end-to-end benchmark:
// Llama-13B on four 8×RTX 4090 servers, global batch 32, MEPipe over the
// default space — 48 grid points, 30 evaluated, 14 simulated (62,208 ops).
func planColdPoint() (config.Model, cluster.Cluster, config.Training, SearchSpace) {
	return config.Llama13B(), cluster.RTX4090Cluster(4), config.Training{GlobalBatch: 32, MicroBatch: 1}, DefaultSpace()
}

// TestSearchSameOnOneAndTwoCores: the worker pool's dispatch order must
// not leak into the answer — SearchContext at GOMAXPROCS 1 and 2 returns
// DeepEqual results, with and without the branch-and-bound gate.
func TestSearchSameOnOneAndTwoCores(t *testing.T) {
	m, cl, tr, sp := planColdPoint()
	for _, prune := range []bool{false, true} {
		sp.Prune = prune
		var res [2]*SearchResult
		for i, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			r, err := SearchContext(context.Background(), MEPipe, m, cl, tr, sp)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("prune=%v: SearchContext differs between GOMAXPROCS 1 and 2", prune)
		}
	}
}

// TestLargestFirst pins the dispatch order: descending P·V·S·N, ties in
// grid order.
func TestLargestFirst(t *testing.T) {
	tr := config.Training{GlobalBatch: 32, MicroBatch: 1}
	cands := []config.Parallel{
		{PP: 2, DP: 16, CP: 1, SPP: 1, VP: 1},
		{PP: 8, DP: 4, CP: 1, SPP: 4, VP: 1},
		{PP: 4, DP: 8, CP: 1, SPP: 4, VP: 2},
		{PP: 8, DP: 4, CP: 1, SPP: 32, VP: 1},
		{PP: 2, DP: 16, CP: 1, SPP: 1, VP: 2},
	}
	// N = 32/DP: sizes 4, 256, 128, 2048, 8.
	want := []int{3, 1, 2, 4, 0}
	if got := largestFirst(cands, tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("largestFirst = %v, want %v", got, want)
	}
	ties := []config.Parallel{cands[0], cands[0], cands[3], cands[0]}
	if got := largestFirst(ties, tr); !reflect.DeepEqual(got, []int{2, 0, 1, 3}) {
		t.Fatalf("ties not in grid order: %v", got)
	}
}

// TestPlanColdAllocs: the pruned cold search allocates at most 1,000
// objects. It allocated 4,141 while every OpTime call built a fresh span
// slice and every certified point ran a full Certify before its session,
// and 1,385 while each point's memory plan grew its tables by append and
// each TailTime call rebuilt the stage parameters.
func TestPlanColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random")
	}
	m, cl, tr, sp := planColdPoint()
	sp.Prune = true
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SearchContext(context.Background(), MEPipe, m, cl, tr, sp); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per pruned plan-cold search", allocs)
	if allocs > 1000 {
		t.Fatalf("pruned plan-cold search: %.0f allocs, want at most 1000", allocs)
	}
}

// TestPlanColdBytes: the unpruned cold search allocates at most 1 MB.
// It allocated 4.67 MB while every grid point built fresh stage lists and
// a fresh dependency table and dropped them after its simulation.
func TestPlanColdBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool drops items at random")
	}
	m, cl, tr, sp := planColdPoint()
	search := func() {
		if _, err := SearchContext(context.Background(), MEPipe, m, cl, tr, sp); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	search() // fill the pools, as AllocsPerRun's warm-up run does
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		search()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes per unpruned plan-cold search", bytes)
	if bytes > 1e6 {
		t.Fatalf("unpruned plan-cold search: %.0f bytes, want at most 1 MB", bytes)
	}
}

// BenchmarkPlanCold is the cold planning request's search alone, without
// and with pruning. It reports the pruned search's counters.
func BenchmarkPlanCold(b *testing.B) {
	m, cl, tr, sp := planColdPoint()
	for _, prune := range []bool{false, true} {
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			sp.Prune = prune
			b.ReportAllocs()
			var res *SearchResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = SearchContext(context.Background(), MEPipe, m, cl, tr, sp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Evaluated), "evaluated")
			b.ReportMetric(float64(res.Pruned), "pruned")
		})
	}
}
