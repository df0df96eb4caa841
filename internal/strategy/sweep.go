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
// through EvaluateContext, the only per-point code path:
//
//   - The engine enumerates each system's grid (enumerate) and, when
//     SearchSpace.Prune is set, each point's analytic lower bound.
//   - Workers (at most GOMAXPROCS) pull point indices from an atomic
//     cursor in largestFirst order over all systems, so the longest
//     evaluations start first instead of finishing on one worker.
//   - With pruning, the workers share a per-system prefixGate: point i is
//     skipped before evaluation once a completed, non-OOM point j < i
//     (grid order) has a simulated time below i's lower bound. Every gate
//     skip is provably also a sequential-pruning skip (see prefixGate).
//   - Results are positional. After the join, a grid-order replay per
//     system reconstructs exactly what a sequential walk with pruning
//     would have produced — candidates, Evaluated/Pruned counters and the
//     first error in grid order — whatever the worker count or
//     interleaving.

// SweepStats counts what the engine actually did, across all systems.
type SweepStats struct {
	// GridPoints is the number of enumerated candidate strategies.
	GridPoints int
	// Simulated counts points whose evaluation ran the simulator;
	// GateSkipped counts points the branch-and-bound gate skipped before
	// evaluation.
	Simulated, GateSkipped int
	// Evaluated and Pruned are the sequential-equivalent totals over all
	// systems (the sums of the per-system SearchResult counters).
	Evaluated, Pruned int
}

// PruneRate is the sequential-equivalent fraction of grid points skipped by
// the analytic lower bound.
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
	var pars []config.Parallel
	for si, sys := range systems {
		g := newSysGrid(sys, m, cl, tr, sp)
		grids[si] = g
		for i, par := range g.cands {
			points = append(points, gridPoint{g: g, i: i})
			pars = append(pars, par)
		}
	}

	order := largestFirst(pars, tr)
	workers := min(runtime.GOMAXPROCS(0), len(points))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(cursor.Add(1)) - 1
				if k >= len(order) {
					return
				}
				pt := points[order[k]]
				pt.g.run(ctx, pt.i, m, cl, tr, sp.Prune, opts)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("strategy: sweep %w: %v", errs.ErrCancelled, err)
	}

	res := &SweepResult{
		Results: make([]*SearchResult, len(systems)),
		Errs:    make([]error, len(systems)),
	}
	st := &res.Stats
	for si, g := range grids {
		sr, err := g.replay(sp.Prune)
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
			if o.gated {
				st.GateSkipped++
			}
		}
	}
	return res, nil
}

// gridPoint names point i of one system's grid.
type gridPoint struct {
	g *sysGrid
	i int
}

// sysGrid is one system's grid in grid order, with its positional results.
type sysGrid struct {
	sys   System
	gpus  int
	cands []config.Parallel
	lb    []float64 // analytic lower bound, NaN when none applies (Prune only)
	out   []outcome
	gate  *prefixGate
}

// outcome is what the parallel pass learned about one point. Each point is
// written by exactly one worker and read only after the join.
type outcome struct {
	ran   bool // EvaluateContext returned ev or err
	gated bool // skipped by the branch-and-bound gate
	ev    *Eval
	err   error
}

func newSysGrid(sys System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace) *sysGrid {
	g := &sysGrid{sys: sys, gpus: cl.GPUs()}
	g.cands = enumerate(sys, g.gpus, tr, sp)
	g.out = make([]outcome, len(g.cands))
	if sp.Prune {
		g.lb = make([]float64, len(g.cands))
		for i, par := range g.cands {
			g.lb[i] = math.NaN()
			if lb, ok := lowerBound(sys, m, cl, par, tr); ok {
				g.lb[i] = lb
			}
		}
		g.gate = newPrefixGate(len(g.cands))
	}
	return g
}

// run evaluates point i unless the gate proves the replay will prune it.
func (g *sysGrid) run(ctx context.Context, i int, m config.Model, cl cluster.Cluster, tr config.Training, prune bool, opts []Option) {
	o := &g.out[i]
	if prune && g.lb[i] > g.gate.bound(i) { // NaN compares false
		o.gated = true
		return
	}
	o.ev, o.err = EvaluateContext(ctx, g.sys, m, cl, g.cands[i], tr, opts...)
	o.ran = true
	if prune && o.err == nil && !o.ev.OOM {
		g.gate.complete(i, o.ev.IterTime)
	}
}

// replay reconstructs the sequential search result from the parallel
// pass: it walks the grid in order, re-deriving the best-so-far pruning
// decisions, and consumes the evaluations only for points a sequential
// walk would actually have evaluated.
func (g *sysGrid) replay(prune bool) (*SearchResult, error) {
	res := &SearchResult{Sys: g.sys}
	bestTime := 0.0
	for i := range g.cands {
		// The prune check comes first, so even a point EvaluateContext
		// would reject counts as pruned when its bound clears the best.
		if prune && bestTime > 0 && g.lb[i] > bestTime {
			res.Pruned++
			continue
		}
		o := g.out[i]
		if !o.ran {
			// Unreachable when the gate's prefix argument holds: a point
			// the replay needs was evaluated by the parallel pass.
			return nil, fmt.Errorf("strategy: search dropped %s %v (internal branch-and-bound error): %w",
				g.sys, g.cands[i], errs.ErrUncertified)
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
		if !o.ev.OOM && (bestTime == 0 || o.ev.IterTime < bestTime) {
			bestTime = o.ev.IterTime
		}
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

// prefixGate is the monotonically tightening bound the branch-and-bound
// workers share. slot[i] holds the minimum simulated iteration time over
// the COMPLETED non-OOM points j < i; completing point j tightens every
// later slot with a CAS-min.
//
// Soundness (gate skips ⊆ sequential prunes): suppose the gate skips i
// because lb(i) > T_j for a completed non-OOM j < i. If sequential search
// evaluated j, then its best-so-far at i is ≤ T_j < lb(i), so it prunes i
// too. If sequential search PRUNED j, then lb(j) exceeded its best-so-far
// at j, and T_j ≥ lb(j) > best(j) ≥ best(i), so lb(i) > T_j > best(i) and
// sequential search again prunes i (a non-OOM evaluated predecessor exists
// in both cases — the first non-OOM point is never pruned). Hence the
// replay never needs a point the gate skipped.
type prefixGate struct {
	slots []atomic.Uint64
}

func newPrefixGate(n int) *prefixGate {
	g := &prefixGate{slots: make([]atomic.Uint64, n)}
	inf := math.Float64bits(math.Inf(1))
	for i := range g.slots {
		g.slots[i].Store(inf)
	}
	return g
}

// bound returns the tightest completed-prefix time for point i (+Inf when
// nothing before i has completed).
func (g *prefixGate) bound(i int) float64 {
	return math.Float64frombits(g.slots[i].Load())
}

// complete records point i's simulated time, tightening every later slot.
// Positive float ordering matches unsigned bit ordering, so CAS-min on the
// raw bits is exact.
func (g *prefixGate) complete(i int, t float64) {
	bits := math.Float64bits(t)
	for k := i + 1; k < len(g.slots); k++ {
		for {
			cur := g.slots[k].Load()
			if bits >= cur {
				break
			}
			if g.slots[k].CompareAndSwap(cur, bits) {
				break
			}
		}
	}
}
