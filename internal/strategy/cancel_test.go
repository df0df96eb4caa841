package strategy

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/obs"
)

// TestSearchContextCancelled: a cancelled context stops the grid search on
// both the parallel and the pruned path, returns an error wrapping
// errs.ErrCancelled, and leaves no worker goroutines behind.
func TestSearchContextCancelled(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(8)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}

	for _, prune := range []bool{false, true} {
		sp := DefaultSpace()
		sp.Prune = prune
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := SearchContext(ctx, MEPipe, m, cl, tr, sp)
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("prune=%v: SearchContext = (%v, %v), want ErrCancelled", prune, res, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("prune=%v: goroutines leaked: %d running, baseline %d", prune, n, before)
		}
	}
}

// TestSearchContextCancelMidway cancels after the first simulated candidate
// rather than up front, exercising the in-flight drain.
func TestSearchContextCancelMidway(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(8)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}

	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	sink := sinkFunc(func(obs.Event) {
		if fired.CompareAndSwap(false, true) {
			cancel()
		}
	})
	_, err := SearchContext(ctx, MEPipe, m, cl, tr, SearchSpace{
		PP: []int{8}, SPP: []int{4}, MinDP: 2, Prune: true,
	}, WithSink(sink))
	if !fired.Load() {
		t.Fatal("no candidate simulated before cancellation")
	}
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("SearchContext = %v, want ErrCancelled", err)
	}
}

type sinkFunc func(obs.Event)

func (f sinkFunc) Emit(e obs.Event) { f(e) }

// TestSentinelErrors: every classified failure wraps its sentinel.
func TestSentinelErrors(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(8)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}

	// Shape a system cannot express → ErrIncompatible.
	_, err := Evaluate(DAPPLE, m, cl, config.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, tr)
	if !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("slices under DAPPLE: %v, want ErrIncompatible", err)
	}

	// An empty grid → ErrIncompatible.
	_, err = Search(MEPipe, m, cl, tr, SearchSpace{PP: []int{7}, SPP: []int{1}, MinDP: 2})
	if !errors.Is(err, errs.ErrIncompatible) {
		t.Errorf("empty grid: %v, want ErrIncompatible", err)
	}
}

// TestSearchDeterministicOrder: two runs of the same search (one parallel,
// one sequential via pruning disabled twice) produce identical candidate
// orderings — the tie-break on strategy shape makes the sort total.
func TestSearchDeterministicOrder(t *testing.T) {
	m := config.Llama13B()
	cl := cluster.RTX4090Cluster(8)
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	sp := SearchSpace{PP: []int{2, 4, 8}, SPP: []int{1, 2, 4}, MinDP: 2}

	var orders [][]config.Parallel
	for run := 0; run < 3; run++ {
		res, err := Search(MEPipe, m, cl, tr, sp)
		if err != nil {
			t.Fatal(err)
		}
		var order []config.Parallel
		for _, ev := range res.Candidates {
			order = append(order, ev.Par)
		}
		orders = append(orders, order)
	}
	for run := 1; run < len(orders); run++ {
		if len(orders[run]) != len(orders[0]) {
			t.Fatalf("run %d: %d candidates vs %d", run, len(orders[run]), len(orders[0]))
		}
		for i := range orders[0] {
			if orders[run][i] != orders[0][i] {
				t.Errorf("run %d candidate %d: %v vs %v", run, i, orders[run][i], orders[0][i])
			}
		}
	}
}
