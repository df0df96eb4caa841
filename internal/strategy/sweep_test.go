package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
)

// searchOracle is the search the engine must reproduce: evaluate every
// grid point one at a time in grid order; with pruning, drop every point
// whose work bound exceeds the best feasible time of the whole grid.
func searchOracle(sys System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace) (*SearchResult, error) {
	type point struct {
		bound float64
		ev    *Eval
		err   error
	}
	var pts []point
	best := math.Inf(1)
	for _, par := range enumerate(sys, cl.GPUs(), tr, sp) {
		var pt point
		pt.ev, pt.err = evaluate(context.Background(), sys, m, cl, par, tr,
			func(b float64) bool { pt.bound = b; return false }, nil)
		if pt.err == nil && !pt.ev.OOM {
			best = math.Min(best, pt.ev.IterTime)
		}
		pts = append(pts, pt)
	}
	res := &SearchResult{Sys: sys}
	for _, pt := range pts {
		if sp.Prune && pt.bound > best {
			res.Pruned++
			continue
		}
		if pt.err != nil {
			if errors.Is(pt.err, errs.ErrIncompatible) {
				continue
			}
			return nil, pt.err
		}
		res.Evaluated++
		res.Candidates = append(res.Candidates, pt.ev)
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return less(res.Candidates[i], res.Candidates[j])
	})
	if len(res.Candidates) == 0 {
		return res, fmt.Errorf("strategy: no candidate for %s fits %d GPUs: %w", sys, cl.GPUs(), errs.ErrIncompatible)
	}
	return res, nil
}

// sameSearch fails t unless got/gotErr equal the oracle's answer: the
// same error text, Evaluated/Pruned counters, and DeepEqual candidates in
// the same order.
func sameSearch(t *testing.T, what string, got *SearchResult, gotErr error, ref *SearchResult, refErr error) {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) || (refErr != nil && refErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error mismatch: got %v, oracle %v", what, gotErr, refErr)
	}
	if got == nil {
		t.Fatalf("%s: no result", what)
	}
	if got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
		t.Errorf("%s: counters (evaluated %d, pruned %d), want (%d, %d)",
			what, got.Evaluated, got.Pruned, ref.Evaluated, ref.Pruned)
	}
	if len(got.Candidates) != len(ref.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got.Candidates), len(ref.Candidates))
	}
	for i := range ref.Candidates {
		if !reflect.DeepEqual(got.Candidates[i], ref.Candidates[i]) {
			t.Fatalf("%s: candidate %d differs:\ngot:    %+v\noracle: %+v",
				what, i, got.Candidates[i], ref.Candidates[i])
		}
	}
}

// TestSweepMatchesSequential is the engine's golden gate: for every preset
// system, with and without pruning, at 8/16/32 GPUs, both Sweep and
// SearchContext must return DeepEqual candidates — contents AND order — to
// the sequential oracle, along with identical Evaluated/Pruned counters
// and per-system errors; and the pruned best must equal the unpruned one.
func TestSweepMatchesSequential(t *testing.T) {
	m := config.Llama13B()
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	for _, servers := range []int{1, 2, 4} {
		cl := cluster.RTX4090Cluster(servers)
		unpruned := map[System]*Eval{}
		for _, prune := range []bool{false, true} {
			t.Run(fmt.Sprintf("gpus=%d/prune=%v", cl.GPUs(), prune), func(t *testing.T) {
				sp := DefaultSpace()
				sp.Prune = prune
				sw, err := Sweep(context.Background(), Systems(), m, cl, tr, sp)
				if err != nil {
					t.Fatalf("Sweep: %v", err)
				}
				if got, want := len(sw.Results), len(Systems()); got != want {
					t.Fatalf("Sweep returned %d results, want %d", got, want)
				}
				var found bool
				var pruned int
				for si, sys := range Systems() {
					ref, refErr := searchOracle(sys, m, cl, tr, sp)
					sameSearch(t, "Sweep "+sys.String(), sw.Results[si], sw.Errs[si], ref, refErr)
					one, oneErr := SearchContext(context.Background(), sys, m, cl, tr, sp)
					sameSearch(t, "SearchContext "+sys.String(), one, oneErr, ref, refErr)
					found = found || ref.Found()
					pruned += ref.Pruned
					if !prune {
						unpruned[sys] = ref.Best()
					} else if !reflect.DeepEqual(sw.Results[si].Best(), unpruned[sys]) {
						t.Errorf("%s: pruned best %+v, unpruned %+v", sys, sw.Results[si].Best(), unpruned[sys])
					}
				}
				if sw.Stats.GridPoints == 0 || sw.Stats.Pruned != pruned {
					t.Errorf("implausible stats: %+v (oracle pruned %d)", sw.Stats, pruned)
				}
				// All-OOM grids (8 GPUs) legitimately settle every point
				// before simulation.
				if found && sw.Stats.Simulated == 0 {
					t.Errorf("found candidates without simulating: %+v", sw.Stats)
				}
			})
		}
	}
}

// TestSweepCancelled: cancelling mid-sweep drains every worker goroutine
// and reports an error wrapping errs.ErrCancelled.
func TestSweepCancelled(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(2)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}

	// Cancelled up front.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, Systems(), m, cl, tr, DefaultSpace()); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("pre-cancelled Sweep error = %v, want ErrCancelled", err)
	}

	// Cancelled midway: cancel shortly after the sweep starts, from a
	// timer rather than a hook, so workers observe it between points.
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	res, err := Sweep(ctx, Systems(), m, cl, tr, DefaultSpace())
	if err == nil {
		// The sweep may legitimately win the race and finish first;
		// then the result must be complete.
		if res == nil || len(res.Results) != len(Systems()) {
			t.Fatalf("raced Sweep returned incomplete result %+v", res)
		}
	} else if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("mid-sweep cancel error = %v, want ErrCancelled", err)
	}
	cancel()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d running, baseline %d", n, before)
	}
}

// TestSearchTracedMatchesUntraced: a traced search emits into the sink
// from the pooled sessions of several workers and returns the untraced
// answer.
func TestSearchTracedMatchesUntraced(t *testing.T) {
	m, cl, tr, sp := planColdPoint()
	want, err := SearchContext(context.Background(), MEPipe, m, cl, tr, sp)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	events := 0
	sink := sinkFunc(func(obs.Event) {
		mu.Lock()
		events++
		mu.Unlock()
	})
	got, err := SearchContext(context.Background(), MEPipe, m, cl, tr, sp, WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("traced search emitted no events")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("traced SearchContext differs from the untraced one")
	}
}

// BenchmarkSweep is the multi-system search of docs/PERFORMANCE.md ("The
// grid-search engine"): Llama-13B on four 8×RTX 4090 servers, global batch
// 64, every preset system over the default space, 158 grid points.
func BenchmarkSweep(b *testing.B) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(4)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	for _, prune := range []bool{false, true} {
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			sp := DefaultSpace()
			sp.Prune = prune
			points := 0
			for i := 0; i < b.N; i++ {
				sw, err := Sweep(context.Background(), Systems(), m, cl, tr, sp)
				if err != nil {
					b.Fatal(err)
				}
				points += sw.Stats.GridPoints
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
