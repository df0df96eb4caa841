package strategy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
)

// The grid-search engine. Sweep searches the grids of several systems in
// one pass; SearchContext is a one-system Sweep. Every grid point goes
// through EvaluateContext's path (evaluate), the only per-point code path:
//
//   - The engine enumerates each system's grid (enumerate). Workers (at
//     most GOMAXPROCS) pull point indices from an atomic cursor (fan).
//   - Without pruning they take the points in largestFirst order over all
//     systems, so the longest evaluations start first instead of finishing
//     on one worker.
//   - With SearchSpace.Prune, the workers first resolve every point up to
//     its work bound (workBound); points without one (shape errors, static
//     OOM) finish there. The caller then runs the bounded points one at a
//     time, lowest bound first, ties in (system, grid) order, and skips a
//     point before its schedule is built when its bound exceeds its
//     system's incumbent: the k-th least feasible time found so far, k =
//     max(SearchSpace.Top, 1), +Inf until k are known. The bound is close
//     to the simulated time, so in this order most points after the first
//     good ones are skipped; parallel workers here would only simulate
//     points a one-at-a-time walk skips.
//   - Results are positional. After the join, a replay per system walks
//     the grid and drops every point whose bound exceeds the system's k-th
//     best feasible time, run or not. A point among the first k ranks has
//     a time, and so a bound, at most that k-th best, and the incumbent
//     never falls below it: every such point runs, every skip is dropped,
//     and the candidates, the Evaluated/Pruned counters and the first
//     error in grid order depend on neither dispatch order nor worker
//     count.

// SweepStats counts what the engine did, across all systems.
type SweepStats struct {
	// GridPoints is the number of enumerated candidate strategies.
	GridPoints int
	// Simulated counts points whose evaluation ran the simulator;
	// GateSkipped counts points skipped against their system's incumbent
	// before their schedule was built (Prune only).
	Simulated, GateSkipped int
	// Evaluated and Pruned are the sums of the per-system SearchResult
	// counters.
	Evaluated, Pruned int
}

// PruneRate is the fraction of grid points pruned by the work bound.
func (st SweepStats) PruneRate() float64 {
	if st.GridPoints == 0 {
		return 0
	}
	return float64(st.Pruned) / float64(st.GridPoints)
}

// SweepResult is the outcome of one multi-system sweep.
type SweepResult struct {
	// Results holds one SearchResult per requested system, in input
	// order, each identical to what SearchContext returns.
	Results []*SearchResult
	// Errs[i] is the error SearchContext would have returned for system i
	// (e.g. "no candidate fits"), nil on success. Cancellation and
	// genuine failures abort the whole sweep through Sweep's own error
	// instead.
	Errs []error
	// Stats aggregates engine counters across all systems.
	Stats SweepStats
}

// Sweep grid-searches several systems in one pass (see the engine comment
// above). Options pass through to every EvaluateContext call; a sink
// (WithSink) receives the events of every simulated point, from several
// workers at once.
//
//mepipe:deterministic
func Sweep(ctx context.Context, systems []System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace, opts ...Option) (*SweepResult, error) {
	grids := make([]*sysGrid, len(systems))
	var points []gridPoint
	for si, sys := range systems {
		g := &sysGrid{sys: sys, gpus: cl.GPUs(), ranks: int(max(sp.Top, 1))}
		g.cands = enumerate(sys, g.gpus, tr, sp)
		g.out = make([]outcome, len(g.cands))
		grids[si] = g
		for i := range g.cands {
			points = append(points, gridPoint{g: g, i: i})
		}
	}
	run := func(pt gridPoint, stop func(bound float64) bool) {
		o := pt.out()
		o.ev, o.err = evaluate(ctx, pt.g.sys, m, cl, pt.g.cands[pt.i], tr, stop, opts)
	}

	if !sp.Prune {
		pars := make([]config.Parallel, len(points))
		for k, pt := range points {
			pars[k] = pt.g.cands[pt.i]
		}
		order := largestFirst(pars, tr)
		fan(ctx, len(order), func(k int) { run(points[order[k]], nil) })
	} else {
		fan(ctx, len(points), func(k int) {
			o := points[k].out()
			run(points[k], func(bound float64) bool { o.bound = bound; return true })
		})
		var order []gridPoint
		for _, pt := range points {
			if pt.out().err == errSkipped {
				order = append(order, pt)
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return order[a].out().bound < order[b].out().bound })
		for _, pt := range order {
			if o, g := pt.out(), pt.g; ctx.Err() == nil && o.bound <= g.incumbent() {
				run(pt, nil)
				if o.err == nil && !o.ev.OOM {
					g.admit(o.ev.IterTime)
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("strategy: sweep %w: %v", errs.ErrCancelled, err)
	}

	res := &SweepResult{
		Results: make([]*SearchResult, len(systems)),
		Errs:    make([]error, len(systems)),
	}
	st := &res.Stats
	for si, g := range grids {
		sr, err := g.replay()
		if err != nil && (sr == nil || !errors.Is(err, errs.ErrIncompatible)) {
			return nil, err
		}
		// A nil sr is a genuine failure; an ErrIncompatible error with a
		// result is the system's own "no candidate fits" outcome,
		// recorded per system like a SearchContext caller looping over
		// systems would see it.
		res.Results[si], res.Errs[si] = sr, err
		st.GridPoints += len(g.cands)
		st.Evaluated += sr.Evaluated
		st.Pruned += sr.Pruned
		for _, o := range g.out {
			if o.ev != nil && o.ev.Result != nil {
				st.Simulated++
			}
			if o.err == errSkipped {
				st.GateSkipped++
			}
		}
	}
	return res, nil
}

// fan calls do(k) for every k < n on at most GOMAXPROCS workers that pull
// k from an atomic cursor, until ctx is cancelled, and returns when all
// calls have.
func fan(ctx context.Context, n int, do func(k int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(cursor.Add(1)) - 1
				if k >= n {
					return
				}
				do(k)
			}
		}()
	}
	wg.Wait()
}

// gridPoint names point i of one system's grid.
type gridPoint struct {
	g *sysGrid
	i int
}

func (pt gridPoint) out() *outcome { return &pt.g.out[pt.i] }

// sysGrid is one system's grid in grid order, with its positional results
// and, in a pruned search, the least feasible times found so far in
// ascending order, at most ranks of them: read and written by the caller
// only.
type sysGrid struct {
	sys   System
	gpus  int
	cands []config.Parallel
	out   []outcome
	ranks int // k = max(SearchSpace.Top, 1)
	best  []float64
}

// incumbent is the k-th least feasible time found so far, +Inf until k
// are known.
func (g *sysGrid) incumbent() float64 {
	if len(g.best) < g.ranks {
		return math.Inf(1)
	}
	return g.best[g.ranks-1]
}

// admit records feasible time t among the k least.
func (g *sysGrid) admit(t float64) {
	i := sort.SearchFloat64s(g.best, t)
	if i == g.ranks {
		return
	}
	if len(g.best) < g.ranks {
		g.best = append(g.best, t)
	}
	copy(g.best[i+1:], g.best[i:])
	g.best[i] = t
}

// outcome is what the search learned about one point. Each point is written
// by one goroutine at a time, and read by others only after a join.
type outcome struct {
	bound float64 // work bound; 0 (never pruned) when none was computed
	ev    *Eval
	err   error // errSkipped when the point was skipped at its bound
}

// replay builds the search result from the positional outcomes: it walks
// the grid in order, drops every point whose bound exceeds the k-th best
// feasible time, and lists the rest. Only the pruned walk's evaluations
// can be feasible, so its final incumbent is that k-th best; without
// pruning no point has a bound.
func (g *sysGrid) replay() (*SearchResult, error) {
	res := &SearchResult{Sys: g.sys}
	for _, o := range g.out {
		// Checked first, so a point EvaluateContext would reject also
		// counts as pruned when its bound exceeds the k-th best.
		if o.bound > g.incumbent() {
			res.Pruned++
			continue
		}
		if o.err != nil {
			if errors.Is(o.err, errs.ErrIncompatible) {
				continue // expected: partition/sequence shape rejection
			}
			// A rejected schedule or a simulator failure — not a shape
			// mismatch to skip.
			return nil, o.err
		}
		res.Evaluated++
		res.Candidates = append(res.Candidates, o.ev)
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return less(res.Candidates[i], res.Candidates[j])
	})
	if len(res.Candidates) == 0 {
		return res, fmt.Errorf("strategy: no candidate for %s fits %d GPUs: %w", g.sys, g.gpus, errs.ErrIncompatible)
	}
	return res, nil
}

// largestFirst returns the candidate indices in descending P·V·S·N order
// (the number of op families in the candidate's schedule, which sets its
// generate and simulate cost), ties in input order: the workers then start
// their longest candidates first instead of finishing on one. Results stay
// positional, so the order changes no byte of the answer.
func largestFirst(cands []config.Parallel, tr config.Training) []int {
	size := make([]int, len(cands))
	order := make([]int, len(cands))
	for i, par := range cands {
		order[i] = i
		if n, err := tr.MicroBatches(par); err == nil {
			size[i] = par.PP * par.VP * par.SPP * n
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}
