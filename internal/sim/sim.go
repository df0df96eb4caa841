// Package sim executes pipeline schedules in simulated time over a modelled
// cluster: a discrete-event replay that derives every op's start from its
// dependencies, charges communication delays on cross-stage edges, tracks
// activation memory alloc/free, and (in dynamic mode) re-places fine-grained
// weight-gradient GEMMs into stalls exactly as the paper's execution engine
// does (§5). It reports iteration time, per-stage bubble ratio, and peak
// memory — the three quantities every table and figure of the paper is
// built from.
//
// Every entry point binds a Session, whose bind and first sweep are the
// silent producer of the structural verdict (see Session).
package sim

import (
	"context"
	"fmt"
	"sync"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// Costs supplies exact per-op durations, communication delays, and memory
// footprints for a simulation run.
type Costs interface {
	sched.Estimator
	// ActBytes returns the activation bytes retained when forward op f
	// (Kind F) completes on stage.
	ActBytes(stage int, f sched.Op) int64
	// GradBytes returns the additional bytes retained from the end of a
	// split BAct until the family's weight gradients complete.
	GradBytes(stage int, b sched.Op) int64
}

// Options configures one simulated iteration.
type Options struct {
	Sched *sched.Schedule
	Costs Costs

	// ActBudget, when non-nil, is the per-stage activation memory budget
	// in the cost model's ActBytes/GradBytes units. In static mode the
	// first allocation that takes a stage's retention over its budget
	// marks the run OOM, and a move overlay refuses any move that would
	// (Overlay.Eval). In dynamic mode the budget forces weight-gradient
	// work to drain before new forwards are admitted (§5); exceeding it
	// with no drainable work marks the run OOM.
	ActBudget []int64

	// DynamicW ignores the static positions of W/WPiece ops and instead
	// drains them from a per-stage queue into dependency stalls — the
	// paper's execution-engine behaviour. Requires a SplitBW schedule. A
	// dynamic evaluation ranks the order (the deadlock check) and solves
	// no static start/finish times.
	DynamicW bool

	// TailTime is appended after the last op on every stage (optimizer
	// step plus gradient synchronisation), indexed by stage. Nil means
	// zero.
	TailTime func(stage int) float64

	// Trace, when non-nil, receives structured events for every
	// evaluation: op spans, cross-stage transfers, memory alloc/free with
	// live totals, dependency/communication stalls, the §5 dynamic
	// engine's budget-stall and W-drain events, and, when TailTime is
	// set, one tail span per stage from its last op to its Finish. The
	// event stream is the simulator's only per-op timeline: a Recorder's
	// Trace is what renderers, breakdowns and memory curves read, and its
	// Makespan equals Result.IterTime bit for bit. Sessions emit after
	// each Eval's solve (static mode) or inline (dynamic mode); within a
	// stage the events arrive in execution order, which is all
	// obs.Recorder's (start, stage) sort needs. Nil costs nothing.
	Trace obs.Sink

	// MakespanOnly has no effect: a Result carries aggregates only, and
	// the per-op timeline is the Trace event stream.
	//
	// Deprecated: leave it unset.
	MakespanOnly bool

	// AssumeValid has no effect: every session's bind gates (see Session).
	//
	// Deprecated: leave it unset.
	AssumeValid bool
}

// BytesEstimator is optionally implemented by Costs to report the payload
// size of a cross-stage transfer; traces fall back to 0 bytes otherwise.
type BytesEstimator interface {
	CommBytes(from, to int, op sched.Op) int64
}

// StageResult aggregates one stage's iteration. Its per-op timeline is
// the Options.Trace event stream.
type StageResult struct {
	ComputeTime float64 // sum of op durations
	Finish      float64 // end of last op (before tail time)
	PeakAct     int64   // peak retained activation+gradient bytes
}

// Result is the outcome of a simulated iteration.
type Result struct {
	Stages   []StageResult
	IterTime float64
	// BubbleRatio is the aggregate idle fraction: 1 − Σ busy / (p · T),
	// with T the iteration makespan (§2.1's definition applied uniformly
	// across stages).
	BubbleRatio float64
	// PeakAct is the maximum over stages of retained activation bytes.
	PeakAct int64
	// OOM is set when a stage's activation budget was exceeded and no
	// deferred weight-gradient work could free memory.
	OOM      bool
	OOMStage int
}

// sessionPool recycles Session capacity across RunContext calls:
// rebinding a pooled session reuses its id maps, edge tables, and result
// buffers, which removes the dominant allocations of one-shot evaluation.
var sessionPool = sync.Pool{New: func() any { return &Session{} }}

// putSession returns se to the pool without the schedule it was bound to.
func putSession(se *Session) {
	se.release()
	sessionPool.Put(se)
}

// Run simulates one iteration and returns its result.
//
//mepipe:deterministic
func Run(opt Options) (*Result, error) {
	return RunContext(context.Background(), opt)
}

// RunContext is Run with cancellation, checked on entry (one evaluation is
// short, so a mid-run check buys nothing): a cancelled ctx returns an error
// wrapping errs.ErrCancelled. It binds a pooled Session, evaluates once
// and returns a clone of the result, so the Result is the caller's to
// keep.
//
//mepipe:deterministic
func RunContext(ctx context.Context, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: run %w: %v", errs.ErrCancelled, err)
	}
	se := sessionPool.Get().(*Session)
	defer putSession(se)
	if err := se.init(opt); err != nil {
		return nil, err
	}
	// The bind loaded opt.Sched's own order, so there is nothing to diff.
	r, err := se.eval()
	if err != nil {
		return nil, err
	}
	return cloneResult(r), nil
}

// Evaluate is RunContext under the name the sweep paths use: one
// pooled-session evaluation whose Result is the caller's to keep.
//
//mepipe:deterministic
func Evaluate(ctx context.Context, opt Options) (*Result, error) {
	return RunContext(ctx, opt)
}

// WriteOrder evaluates opt once and writes the order that ran into
// opt.Sched, in place: in DynamicW mode, each stage's list becomes the §5
// engine's execution order, W pieces where they drained. A static or
// DynamicW run of the rewritten schedule under opt reproduces this
// evaluation's Result bit for bit. A static run writes nothing.
//
//mepipe:deterministic
func WriteOrder(opt Options) error {
	se := sessionPool.Get().(*Session)
	defer putSession(se)
	if err := se.init(opt); err != nil {
		return err
	}
	if _, err := se.eval(); err != nil || !se.dynamicW {
		return err
	}
	// Each list stays a permutation of its stage's ops, and the
	// DepTable depends only on shape and placement, so it stays valid.
	per := se.x.PerStage()
	for i, id := range se.eng.ran {
		opt.Sched.Stages[i/per][i%per] = se.opsl[id]
	}
	return nil
}

// Clone deep-copies the result. Callers that drive a Session directly and
// retain results across Eval calls need it: Eval's Result is session-owned
// and overwritten by the next evaluation.
func (r *Result) Clone() *Result { return cloneResult(r) }

// cloneResult deep-copies a session-owned Result so it survives the next
// Eval.
func cloneResult(r *Result) *Result {
	out := *r
	out.Stages = append([]StageResult(nil), r.Stages...)
	return &out
}
