// Package strategy evaluates complete training configurations — one
// scheduling system plus one parallel strategy — on a modelled cluster, and
// grid-searches the strategy space the way the paper does (§7.3: "we employ
// the grid search method to determine the optimal parallel strategy").
package strategy

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/errs"
	"mepipe/internal/model"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// Option tunes an Evaluate, Search or Plan.Simulate call.
type Option func(*options)

type options struct {
	sink     obs.Sink
	costWrap func(*sched.Schedule, sim.Costs) sim.Costs
}

// WithSink attaches a trace sink to the underlying simulation runs. With
// Search or Sweep, every simulated candidate emits into the same sink from
// several workers at once, so the sink must be safe for concurrent use;
// prefer attaching it to a single Evaluate.
func WithSink(s obs.Sink) Option {
	return func(o *options) { o.sink = s }
}

// WithCostWrap wraps the simulator's cost model once the schedule is
// known, right before the run — the seam fault plans use to perturb an
// evaluation (see chaos.FaultyCosts). The wrapper must be deterministic,
// and it sees the schedule before the run has gated it.
func WithCostWrap(wrap func(*sched.Schedule, sim.Costs) sim.Costs) Option {
	return func(o *options) { o.costWrap = wrap }
}

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// System identifies a scheduling system under evaluation (the columns of
// Fig 8 / Fig 10).
type System int

const (
	DAPPLE System = iota
	VPP
	ZB
	ZBV
	MEPipe
	TeraPipe
	GPipe
)

func (s System) String() string {
	switch s {
	case DAPPLE:
		return "DAPPLE"
	case VPP:
		return "VPP"
	case ZB:
		return "ZB"
	case ZBV:
		return "ZBV"
	case MEPipe:
		return "MEPipe"
	case TeraPipe:
		return "TeraPipe"
	case GPipe:
		return "GPipe"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// Systems returns the evaluation set of Fig 8 / Fig 10.
func Systems() []System { return []System{DAPPLE, VPP, ZB, ZBV, MEPipe} }

// Eval is the outcome of evaluating one configuration.
type Eval struct {
	Sys System
	Par config.Parallel
	N   int // micro-batches per data-parallel group

	OOM      bool
	OOMWhy   string
	IterTime float64 // seconds
	Bubble   float64
	PeakAct  int64
	Budget   int64 // tightest per-stage activation budget
	F        int   // chosen SVPP variant (MEPipe only)

	Result *sim.Result
}

// TFLOPSPerGPU returns achieved model FLOPs per second per GPU, using the
// paper's 6·params·tokens convention.
func (e *Eval) TFLOPSPerGPU(m config.Model, tr config.Training, gpus int) float64 {
	if e.OOM || e.IterTime <= 0 {
		return 0
	}
	flops := 6 * float64(model.TotalParams(m)) * float64(tr.GlobalBatch) * float64(m.SeqLen)
	return flops / e.IterTime / float64(gpus) / 1e12
}

// MFU returns the model FLOPS utilisation against the GPU's peak.
func (e *Eval) MFU(m config.Model, tr config.Training, cl cluster.Cluster) float64 {
	return e.TFLOPSPerGPU(m, tr, cl.GPUs()) * 1e12 / cl.GPU.PeakFLOPS
}

// Evaluate runs one configuration through the memory model, the schedule
// generator, and the simulator.
func Evaluate(sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training) (*Eval, error) {
	return EvaluateContext(context.Background(), sys, m, cl, par, tr)
}

// EvaluateContext is Evaluate with cancellation and per-call options (e.g.
// WithSink to trace the simulated iteration).
//
//mepipe:deterministic
func EvaluateContext(ctx context.Context, sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, opts ...Option) (*Eval, error) {
	return evaluate(ctx, sys, m, cl, par, tr, nil, opts)
}

// evaluate is EvaluateContext with resolve's stop hook, which the grid
// search uses to skip a point at its work bound.
func evaluate(ctx context.Context, sys System, m config.Model, cl cluster.Cluster, par config.Parallel, tr config.Training, stop func(bound float64) bool, opts []Option) (*Eval, error) {
	p, err := resolve(sys, m, cl, par, tr, stop)
	if err != nil {
		return nil, err
	}
	ev := &Eval{Sys: sys, Par: par, N: p.N, Budget: slices.Min(p.Memory.ActBudget)}
	if p.Unfit != nil {
		ev.OOM, ev.OOMWhy = true, p.Unfit.Error()
		if errors.Is(p.Unfit, errStatic) {
			ev.OOMWhy = staticWhy
		}
		return ev, nil
	}
	res, err := p.Simulate(ctx, opts...)
	if err != nil {
		return nil, err
	}
	ev.Result = res
	ev.IterTime = res.IterTime
	ev.Bubble = res.BubbleRatio
	ev.PeakAct = res.PeakAct
	ev.F = p.F
	if res.OOM {
		ev.OOM = true
		ev.OOMWhy = fmt.Sprintf("activations exceed budget on stage %d", res.OOMStage)
	}
	return ev, nil
}

// SearchSpace bounds the grid (§7.3).
type SearchSpace struct {
	PP  []int
	CP  []int // context-parallel sizes for CP-capable systems
	SPP []int // slice counts for MEPipe/TeraPipe
	VP  []int // virtual pipeline sizes for VPP
	// MinDP is the paper's "minimal data parallel size 2" constraint.
	MinDP int
	// Prune drops every candidate whose work bound (no stage finishes
	// before its F and B work plus its tail) exceeds the k-th best
	// feasible time of the whole grid, k = max(Top, 1), and skips
	// simulating such candidates once k feasible times below their bound
	// are known. The bound never exceeds a simulated iteration time, so
	// the first k ranked candidates are unchanged, and the dropped set
	// depends only on the grid: the result is the same for every worker
	// count. §9 calls for exactly this kind of cost-model assistance to
	// tame the grid-search overhead.
	Prune bool
	// Top is how many ranked candidates the caller reads (0: the best
	// alone). It changes nothing without Prune. It is an int32 so that it
	// fits beside Prune in the struct's padding: SearchSpace is passed by
	// value, and a larger struct would move the code that copies it.
	Top int32
}

// DefaultSpace returns the grid the paper's evaluation sweeps.
func DefaultSpace() SearchSpace {
	return SearchSpace{
		PP:    []int{2, 4, 8, 16, 32},
		CP:    []int{1, 2, 4, 8},
		SPP:   []int{1, 2, 4, 8, 16, 32},
		VP:    []int{2, 4},
		MinDP: 2,
	}
}

// Search evaluates every compatible candidate for a system and returns them
// sorted by iteration time (feasible first). The best candidate is
// Candidates[0] when Found.
type SearchResult struct {
	Sys        System
	Candidates []*Eval
	// Evaluated counts the candidates listed; Pruned counts the points
	// whose work bound exceeds the SearchSpace.Top-th best feasible time
	// (SearchSpace.Prune), whether or not the search evaluated them before
	// that time was known.
	Evaluated, Pruned int
}

// Found reports whether any candidate fits in memory.
func (r *SearchResult) Found() bool {
	return len(r.Candidates) > 0 && !r.Candidates[0].OOM
}

// Best returns the fastest feasible candidate, or nil.
func (r *SearchResult) Best() *Eval {
	if !r.Found() {
		return nil
	}
	return r.Candidates[0]
}

// Search grid-searches one system.
func Search(sys System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace) (*SearchResult, error) {
	return SearchContext(context.Background(), sys, m, cl, tr, sp)
}

// SearchContext is Search with cancellation: a cancelled ctx stops the grid
// between candidates (and before each candidate's simulation), drains every
// worker goroutine, and returns an error wrapping errs.ErrCancelled. It is a
// one-system Sweep.
//
//mepipe:deterministic
func SearchContext(ctx context.Context, sys System, m config.Model, cl cluster.Cluster, tr config.Training, sp SearchSpace, opts ...Option) (*SearchResult, error) {
	sw, err := Sweep(ctx, []System{sys}, m, cl, tr, sp, opts...)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, errs.ErrCancelled) {
			return nil, fmt.Errorf("strategy: search for %s %w: %v", sys, errs.ErrCancelled, cerr)
		}
		return nil, err
	}
	return sw.Results[0], sw.Errs[0]
}

// enumerate lists every candidate strategy of the system's grid in its
// fixed grid order: a search reports the first error in this order.
func enumerate(sys System, gpus int, tr config.Training, sp SearchSpace) []config.Parallel {
	var cands []config.Parallel
	add := func(par config.Parallel) {
		if par.Validate() != nil {
			return
		}
		if par.Devices() != gpus {
			return
		}
		if par.DP < sp.MinDP {
			return
		}
		if tr.GlobalBatch%par.DP != 0 {
			return
		}
		cands = append(cands, par)
	}
	for _, pp := range sp.PP {
		if gpus%pp != 0 {
			continue
		}
		switch sys {
		case DAPPLE, ZB, GPipe:
			for _, cp := range sp.CP {
				recs := []config.RecomputeMode{config.RecomputeNone, config.RecomputeSelective, config.RecomputeFull}
				if sys == ZB || sys == GPipe {
					recs = recs[:1] // zero-bubble retains activations for deferred W
				}
				for _, rec := range recs {
					add(config.Parallel{PP: pp, DP: gpus / pp / cp, CP: cp, SPP: 1, VP: 1, Recompute: rec})
				}
			}
		case VPP:
			for _, vp := range sp.VP {
				for _, cp := range sp.CP {
					for _, rec := range []config.RecomputeMode{config.RecomputeNone, config.RecomputeSelective, config.RecomputeFull} {
						add(config.Parallel{PP: pp, DP: gpus / pp / cp, CP: cp, SPP: 1, VP: vp, Recompute: rec})
					}
				}
			}
		case ZBV:
			for _, cp := range sp.CP {
				add(config.Parallel{PP: pp, DP: gpus / pp / cp, CP: cp, SPP: 1, VP: 2})
			}
		case MEPipe:
			for _, spp := range sp.SPP {
				for _, vp := range []int{1, 2} {
					add(config.Parallel{PP: pp, DP: gpus / pp, CP: 1, SPP: spp, VP: vp})
				}
			}
		case TeraPipe:
			for _, spp := range sp.SPP {
				add(config.Parallel{PP: pp, DP: gpus / pp, CP: 1, SPP: spp, VP: 1})
			}
		}
	}
	return cands
}

// less is the total candidate order: feasible before OOM, faster before
// slower, and — critically for reproducible reports and golden tests — a
// stable tie-break on the strategy shape when iteration times are equal
// (which happens whenever two grid points degenerate to the same
// schedule).
func less(a, b *Eval) bool {
	if a.OOM != b.OOM {
		return !a.OOM
	}
	if !a.OOM && a.IterTime != b.IterTime {
		return a.IterTime < b.IterTime
	}
	if a.Par.PP != b.Par.PP {
		return a.Par.PP < b.Par.PP
	}
	if a.Par.VP != b.Par.VP {
		return a.Par.VP < b.Par.VP
	}
	if a.Par.SPP != b.Par.SPP {
		return a.Par.SPP < b.Par.SPP
	}
	if a.Par.CP != b.Par.CP {
		return a.Par.CP < b.Par.CP
	}
	if a.Par.DP != b.Par.DP {
		return a.Par.DP < b.Par.DP
	}
	if a.Par.Recompute != b.Par.Recompute {
		return a.Par.Recompute < b.Par.Recompute
	}
	return a.N < b.N
}
