package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mepipe/internal/errs"
	"mepipe/internal/sched"
)

// sessionPool recycles Session capacity across RunContext/EvaluateMany calls:
// rebinding a pooled session reuses its id maps, edge tables, and result
// buffers, which removes the dominant allocations of one-shot evaluation.
var sessionPool = sync.Pool{New: func() any { return &Session{} }}

// putSession returns se to the pool without the schedule it was bound to.
func putSession(se *Session) {
	se.release()
	sessionPool.Put(se)
}

// Evaluate is RunContext under the name the batch and sweep paths use:
// one pooled-session evaluation whose Result is the caller's to keep.
//
//mepipe:deterministic
func Evaluate(ctx context.Context, opt Options) (*Result, error) {
	return RunContext(ctx, opt)
}

// EvaluateMany simulates every schedule under the same Options (opt.Sched
// is ignored), amortizing session construction across a bounded worker
// pool: each worker binds one session and re-evaluates compatible schedules
// incrementally, rebinding only when the shape changes. workers <= 0 uses
// GOMAXPROCS. Results are positional; a schedule that fails to evaluate
// (invalid, deadlocked, nil) leaves a nil entry rather than failing the
// batch. The only error is cancellation, which wraps errs.ErrCancelled and
// returns the results completed so far. Tracing is incompatible with
// batched evaluation — a batch of schedules has no single trace — and
// reports errs.ErrIncompatible.
//
//mepipe:deterministic
func EvaluateMany(ctx context.Context, scheds []*sched.Schedule, opt Options, workers int) ([]*Result, error) {
	if opt.Trace != nil {
		return nil, fmt.Errorf("sim: batched evaluation cannot trace (use RunContext per schedule): %w", errs.ErrIncompatible)
	}
	results := make([]*Result, len(scheds))
	if len(scheds) == 0 {
		return results, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scheds) {
		workers = len(scheds)
	}
	var cancelled atomic.Bool
	if workers <= 1 {
		evalWorker(ctx, scheds, results, opt, &cancelled)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				evalWorkerShared(ctx, scheds, results, opt, &cancelled, &next)
			}()
		}
		wg.Wait()
	}
	if cancelled.Load() {
		return results, fmt.Errorf("sim: evaluate many %w: %v", errs.ErrCancelled, ctx.Err())
	}
	return results, nil
}

// evalWorker evaluates every schedule serially with one pooled session.
func evalWorker(ctx context.Context, scheds []*sched.Schedule, results []*Result, opt Options, cancelled *atomic.Bool) {
	se := sessionPool.Get().(*Session)
	defer putSession(se)
	bound := false
	for i := range scheds {
		if ctx.Err() != nil {
			cancelled.Store(true)
			return
		}
		results[i] = evalOne(se, &bound, opt, scheds[i])
	}
}

// evalWorkerShared pulls indices from a shared cursor (the same chokepoint
// shape as internal/opt's worker pool).
func evalWorkerShared(ctx context.Context, scheds []*sched.Schedule, results []*Result, opt Options, cancelled *atomic.Bool, next *atomic.Int64) {
	se := sessionPool.Get().(*Session)
	defer putSession(se)
	bound := false
	for {
		i := int(next.Add(1)) - 1
		if i >= len(scheds) {
			return
		}
		if ctx.Err() != nil {
			cancelled.Store(true)
			return
		}
		results[i] = evalOne(se, &bound, opt, scheds[i])
	}
}

// evalOne evaluates s with se, rebinding the session when s is not a
// permutation of its bound schedule. Failures yield nil.
func evalOne(se *Session, bound *bool, opt Options, s *sched.Schedule) *Result {
	if *bound {
		r, err := se.Eval(s)
		if err == nil {
			return cloneResult(r)
		}
		if !errors.Is(err, errs.ErrIncompatible) {
			return nil
		}
		*bound = false
	}
	o := opt
	o.Sched = s
	if err := se.init(o); err != nil {
		return nil
	}
	*bound = true
	r, err := se.Eval(s)
	if err != nil {
		return nil
	}
	return cloneResult(r)
}

// Clone deep-copies the result. Callers that drive a Session directly and
// retain results across Eval calls need it: Eval's Result is session-owned
// and overwritten by the next evaluation.
func (r *Result) Clone() *Result { return cloneResult(r) }

// cloneResult deep-copies a session-owned Result so it survives the next
// Eval.
func cloneResult(r *Result) *Result {
	out := *r
	out.Stages = make([]StageResult, len(r.Stages))
	copy(out.Stages, r.Stages)
	for k := range out.Stages {
		if sp := out.Stages[k].Spans; sp != nil {
			c := make([]Span, len(sp))
			copy(c, sp)
			out.Stages[k].Spans = c
		}
	}
	return &out
}
