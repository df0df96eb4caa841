// Package sim executes pipeline schedules in simulated time over a modelled
// cluster: a discrete-event replay that derives every op's start from its
// dependencies, charges communication delays on cross-stage edges, tracks
// activation memory alloc/free, and (in dynamic mode) re-places fine-grained
// weight-gradient GEMMs into stalls exactly as the paper's execution engine
// does (§5). It reports iteration time, per-stage bubble ratio, and peak
// memory — the three quantities every table and figure of the paper is
// built from.
package sim

import (
	"context"
	"fmt"
	"math"

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
	// in bytes. In dynamic mode the budget forces weight-gradient work to
	// drain before new forwards are admitted (§5); exceeding it with no
	// drainable work marks the run OOM.
	ActBudget []int64

	// DynamicW ignores the static positions of W/WPiece ops and instead
	// drains them from a per-stage queue into dependency stalls — the
	// paper's execution-engine behaviour. Requires a SplitBW schedule.
	DynamicW bool

	// TailTime is appended after the last op on every stage (optimizer
	// step plus gradient synchronisation), indexed by stage. Nil means
	// zero.
	TailTime func(stage int) float64

	// Trace, when non-nil, receives structured span events as the run
	// executes: op spans, cross-stage transfers, memory alloc/free with
	// live totals, dependency/communication stalls, and the §5 dynamic
	// engine's budget-stall and W-drain events. Nil costs nothing.
	Trace obs.Sink

	// MakespanOnly skips recording per-op Spans, leaving Result.Stages
	// with empty timelines but exact IterTime/BubbleRatio/PeakAct. The
	// schedule optimizer evaluates thousands of candidates per second and
	// only reads the aggregates; dropping the span slices removes the
	// dominant allocation. Incompatible with Trace (spans feed nothing
	// there, but exporters built on Result would silently go blind), so
	// Trace wins when both are set.
	MakespanOnly bool

	// AssumeValid skips the redundant Schedule.Validate at session bind.
	// It is sound only for schedules that come valid — sched.Generate's
	// output is valid by construction and the strategy paths additionally
	// certify before binding. Misuse still fails safe: a session binds
	// ops by their sched.OpIndex ids and needs the complete op universe,
	// so a table with missing, duplicate or out-of-shape ops is rejected
	// while the identity tables build (wrapping errs.ErrIncompatible),
	// and deadlocking orders surface at the first evaluation exactly like
	// Run reports them (wrapping errs.ErrUncertified).
	AssumeValid bool
}

// BytesEstimator is optionally implemented by Costs to report the payload
// size of a cross-stage transfer; traces fall back to 0 bytes otherwise.
type BytesEstimator interface {
	CommBytes(from, to int, op sched.Op) int64
}

// Span records one executed op.
type Span struct {
	Op         sched.Op
	Start, End float64
}

// StageResult aggregates one stage's timeline.
type StageResult struct {
	Spans       []Span
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
	// SpansRecorded reports whether Stages carry per-op Span timelines.
	// MakespanOnly runs drop them, and the utilization/memory statistics
	// refuse to compute from a span-less result instead of returning
	// all-idle garbage (see stats.go).
	SpansRecorded bool
}

type stageState struct {
	order   []sched.Op
	cursor  int
	free    float64
	compute float64
	spans   []Span
	// memory
	live    int64
	peak    int64
	famActs map[sched.Op]int64 // family key -> retained bytes
	// dynamic W queue (op, readiness)
	wq []wItem
	// drainable is the number of live bytes completing every queued W
	// would free: the sum of famActs over families with queued
	// weight-gradient work. The budget logic compares overshoots against
	// it — draining cannot help when live + need − drainable still
	// exceeds the budget.
	drainable int64
}

type wItem struct {
	op    sched.Op
	ready float64
}

type opRef struct {
	stage int
	op    sched.Op
}

// Run simulates one iteration and returns its result.
//
//mepipe:deterministic
func Run(opt Options) (*Result, error) {
	return RunContext(context.Background(), opt)
}

// RunContext is Run with cancellation: if ctx is cancelled mid-run, the
// simulation stops and returns an error wrapping errs.ErrCancelled.
//
//mepipe:deterministic
func RunContext(ctx context.Context, opt Options) (*Result, error) {
	s := opt.Sched
	if s == nil {
		return nil, fmt.Errorf("sim: nil schedule: %w", errs.ErrIncompatible)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opt.DynamicW && !s.SplitBW {
		return nil, fmt.Errorf("sim: dynamic weight-gradient mode requires a split-backward schedule: %w", errs.ErrIncompatible)
	}
	if opt.ActBudget != nil && len(opt.ActBudget) != s.P {
		return nil, fmt.Errorf("sim: ActBudget has %d entries, want %d: %w", len(opt.ActBudget), s.P, errs.ErrIncompatible)
	}
	r := &runner{opt: opt, s: s, ctx: ctx, finish: make(map[opRef]float64)}
	r.stages = make([]stageState, s.P)
	for k := range r.stages {
		st := &r.stages[k]
		st.famActs = make(map[sched.Op]int64)
		if opt.DynamicW {
			st.order = stripW(s.Stages[k])
		} else {
			st.order = s.Stages[k]
		}
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

func stripW(ops []sched.Op) []sched.Op {
	out := make([]sched.Op, 0, len(ops))
	for _, op := range ops {
		if op.Kind != sched.W && op.Kind != sched.WPiece {
			out = append(out, op)
		}
	}
	return out
}

type runner struct {
	opt    Options
	s      *sched.Schedule
	ctx    context.Context
	stages []stageState
	finish map[opRef]float64
	oom    bool
	oomAt  int
	deps   []sched.Dep
}

// readyTime returns when op's dependencies are satisfied on stage, or
// (0, false) if some dependency has not completed yet.
func (r *runner) readyTime(stage int, op sched.Op) (float64, bool) {
	r.deps = r.s.Deps(r.deps[:0], stage, op)
	t := 0.0
	for _, d := range r.deps {
		f, ok := r.finish[opRef{d.Stage, d.Op}]
		if !ok {
			return 0, false
		}
		if d.Stage != stage {
			f += r.opt.Costs.CommTime(d.Stage, stage, d.Op)
		}
		if f > t {
			t = f
		}
	}
	return t, true
}

func (r *runner) run() error {
	total := 0
	for k := range r.stages {
		total += len(r.stages[k].order)
		if r.opt.DynamicW {
			total += countW(r.s.Stages[k])
		}
	}
	done := 0
	for done < total {
		// Amortise the context check: once every 256 completed ops is
		// cheap but still bounds cancellation latency for huge grids.
		if done&0xff == 0 && r.ctx.Err() != nil {
			return fmt.Errorf("sim: run %w: %v", errs.ErrCancelled, r.ctx.Err())
		}
		k, _, ok := r.nextStage()
		if !ok {
			return fmt.Errorf("sim: deadlock with %d/%d ops executed (schedule order violates dependencies): %w", done, total, errs.ErrUncertified)
		}
		done += r.execute(k)
	}
	return nil
}

func countW(ops []sched.Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == sched.W || op.Kind == sched.WPiece {
			n++
		}
	}
	return n
}

// nextStage picks the stage whose next executable action starts earliest.
func (r *runner) nextStage() (int, float64, bool) {
	best, bestStart, found := -1, math.Inf(1), false
	for k := range r.stages {
		st := &r.stages[k]
		if st.cursor >= len(st.order) && len(st.wq) == 0 {
			continue
		}
		start, ok := r.stageStart(k)
		if !ok {
			continue
		}
		if start < bestStart {
			best, bestStart, found = k, start, true
		}
	}
	return best, bestStart, found
}

// stageStart returns the earliest time stage k can begin its next action.
func (r *runner) stageStart(k int) (float64, bool) {
	st := &r.stages[k]
	if st.cursor < len(st.order) {
		rt, ok := r.readyTime(k, st.order[st.cursor])
		if ok {
			return max(st.free, rt), true
		}
		// Next scheduled op blocked: a queued W can still run.
	}
	if len(st.wq) > 0 {
		return max(st.free, st.wq[0].ready), true
	}
	return 0, false
}

// execute runs stage k's next action (or a queued weight-gradient piece)
// and returns how many ops completed.
func (r *runner) execute(k int) int {
	st := &r.stages[k]
	if st.cursor < len(st.order) {
		op := st.order[st.cursor]
		rt, ok := r.readyTime(k, op)
		if ok {
			start := max(st.free, rt)
			if r.opt.DynamicW {
				// Fill the stall before `start` with queued
				// weight-gradient pieces (§5), and drain under
				// memory pressure before admitting a forward.
				n := r.fillGap(k, start, op)
				if n > 0 {
					return n
				}
			}
			if r.opt.Trace != nil {
				r.traceWait(k, op, start)
			}
			st.cursor++
			r.runOp(k, op, start, "")
			return 1
		}
		// Blocked: dynamic mode lets W work proceed.
		if r.opt.DynamicW && len(st.wq) > 0 {
			return r.popW(k, "drain-gap")
		}
		return 0
	}
	// Order exhausted: drain the W queue.
	if len(st.wq) > 0 {
		return r.popW(k, "drain-tail")
	}
	return 0
}

// traceWait emits the comm events feeding op and classifies any idle gap
// before start as a dependency or communication stall.
func (r *runner) traceWait(k int, op sched.Op, start float64) {
	const eps = 1e-12
	st := &r.stages[k]
	// Reuse the dependency scratch readyTime already owns: the walk here
	// re-resolves edges the readiness check just produced, and a fresh
	// Deps(nil, ...) would allocate once per traced op.
	r.deps = r.s.Deps(r.deps[:0], k, op)
	depReady := 0.0 // latest dependency finish, communication excluded
	for _, d := range r.deps {
		f, ok := r.finish[opRef{d.Stage, d.Op}]
		if !ok {
			return // unreachable: caller checked readiness
		}
		if f > depReady {
			depReady = f
		}
		if d.Stage != k {
			comm := r.opt.Costs.CommTime(d.Stage, k, d.Op)
			var bytes int64
			if be, ok := r.opt.Costs.(BytesEstimator); ok {
				bytes = be.CommBytes(d.Stage, k, d.Op)
			}
			r.opt.Trace.Emit(obs.Event{
				Kind: obs.EvComm, Stage: k, From: d.Stage, Op: op,
				Start: f, End: f + comm, Bytes: bytes,
			})
		}
	}
	if start <= st.free+eps {
		return // no idle gap
	}
	cause := "dep"
	if depReady <= st.free+eps {
		// Inputs were computed before the stage went idle; the wait is
		// purely tensors in flight.
		cause = "comm"
	}
	r.opt.Trace.Emit(obs.Event{
		Kind: obs.EvStall, Stage: k, From: k, Op: op,
		Start: st.free, End: start, Cause: cause,
	})
}

// fillGap runs queued W pieces that finish before `start`, or that must run
// to free memory before a forward. Returns the number of ops it executed
// (0 means proceed with the scheduled op).
func (r *runner) fillGap(k int, start float64, next sched.Op) int {
	st := &r.stages[k]
	if len(st.wq) == 0 {
		return 0
	}
	w := st.wq[0]
	wStart := max(st.free, w.ready)
	dur := r.opt.Costs.OpTime(k, w.op)
	const eps = 1e-9
	if wStart+dur <= start+eps {
		return r.popW(k, "drain-gap")
	}
	// Memory pressure: if the upcoming op would allocate past the budget,
	// weight gradients must drain first (completing a family's W frees
	// its activations and retained gradients).
	if r.opt.ActBudget != nil {
		var need int64
		switch next.Kind {
		case sched.F:
			need = r.opt.Costs.ActBytes(k, next)
		case sched.BAct:
			need = r.opt.Costs.GradBytes(k, next)
		}
		if need > 0 && st.live+need > r.opt.ActBudget[k] {
			if st.live+need-st.drainable > r.opt.ActBudget[k] {
				// Draining every queued W could not cover the
				// overshoot (W only frees its own family's bytes), so
				// serially draining the queue here would distort the
				// timeline without saving the run. Admit the op; its
				// allocation flags the OOM.
				return 0
			}
			if r.opt.Trace != nil {
				r.opt.Trace.Emit(obs.Event{
					Kind: obs.EvBudget, Stage: k, From: k, Op: next,
					Start: st.free, End: st.free,
					Bytes: need, Live: st.live,
				})
			}
			return r.popW(k, "drain-budget")
		}
	}
	return 0
}

// popW executes the head of the W queue; cause tags the drain in traces.
func (r *runner) popW(k int, cause string) int {
	st := &r.stages[k]
	w := st.wq[0]
	st.wq = st.wq[1:]
	start := max(st.free, w.ready)
	r.runOp(k, w.op, start, cause)
	return 1
}

// runOp executes op at start, updating time, memory, and wq state. cause is
// non-empty for weight-gradient work drained by the dynamic engine.
func (r *runner) runOp(k int, op sched.Op, start float64, cause string) {
	st := &r.stages[k]
	dur := r.opt.Costs.OpTime(k, op)
	end := start + dur
	st.free = end
	st.compute += dur
	if !r.opt.MakespanOnly || r.opt.Trace != nil {
		st.spans = append(st.spans, Span{Op: op, Start: start, End: end})
	}
	r.finish[opRef{k, op}] = end
	if r.opt.Trace != nil {
		r.opt.Trace.Emit(obs.Event{
			Kind: obs.EvOp, Stage: k, From: k, Op: op,
			Start: start, End: end, Cause: cause,
		})
	}
	key := op.Key()
	switch op.Kind {
	case sched.F:
		r.alloc(k, key, r.opt.Costs.ActBytes(k, op))
	case sched.B:
		r.release(k, key)
	case sched.BAct:
		r.alloc(k, key, r.opt.Costs.GradBytes(k, op))
		if r.opt.DynamicW {
			r.enqueueW(k, op, end)
		}
	case sched.W:
		if r.opt.DynamicW {
			st.drainable -= st.famActs[key]
		}
		r.release(k, key)
	case sched.WPiece:
		if r.lastPiece(k, op) {
			if r.opt.DynamicW {
				st.drainable -= st.famActs[key]
			}
			r.release(k, key)
		}
	}
}

// enqueueW adds the family's weight-gradient work to the dynamic queue.
// The family's retained bytes (activations plus gradients, both already
// allocated by the time its BAct completes) become drainable: completing
// the queued W — all pieces, for fine-grained families — frees them.
func (r *runner) enqueueW(k int, b sched.Op, ready float64) {
	st := &r.stages[k]
	st.drainable += st.famActs[b.Key()]
	if r.s.WPieces > 0 {
		for p := 0; p < r.s.WPieces; p++ {
			op := b
			op.Kind = sched.WPiece
			op.Piece = p
			st.wq = append(st.wq, wItem{op, ready})
		}
		return
	}
	op := b
	op.Kind = sched.W
	st.wq = append(st.wq, wItem{op, ready})
}

// lastPiece reports whether op is the family's final executed WPiece.
func (r *runner) lastPiece(k int, op sched.Op) bool {
	for p := 0; p < r.s.WPieces; p++ {
		if p == op.Piece {
			continue
		}
		probe := op
		probe.Piece = p
		if _, ok := r.finish[opRef{k, probe}]; !ok {
			return false
		}
	}
	return true
}

func (r *runner) alloc(k int, key sched.Op, bytes int64) {
	st := &r.stages[k]
	st.famActs[key] += bytes
	st.live += bytes
	if st.live > st.peak {
		st.peak = st.live
	}
	if r.opt.Trace != nil && bytes != 0 {
		r.opt.Trace.Emit(obs.Event{
			Kind: obs.EvAlloc, Stage: k, From: k, Op: key,
			Start: st.free, End: st.free, Bytes: bytes, Live: st.live,
		})
	}
	if r.opt.ActBudget != nil && st.live > r.opt.ActBudget[k] && !r.oom {
		// Static schedules simply exceed. Dynamic mode is OOM exactly
		// when draining every queued weight gradient could not bring
		// the stage back under budget — which subsumes the empty-queue
		// case (drainable is then zero). Transient overshoots a queued
		// family can still absorb are not flagged; the next admission's
		// budget drain resolves them.
		if !r.opt.DynamicW || st.live-st.drainable > r.opt.ActBudget[k] {
			r.oom = true
			r.oomAt = k
		}
	}
}

func (r *runner) release(k int, key sched.Op) {
	st := &r.stages[k]
	freed := st.famActs[key]
	st.live -= freed
	delete(st.famActs, key)
	if r.opt.Trace != nil && freed != 0 {
		r.opt.Trace.Emit(obs.Event{
			Kind: obs.EvFree, Stage: k, From: k, Op: key,
			Start: st.free, End: st.free, Bytes: freed, Live: st.live,
		})
	}
}

func (r *runner) result() *Result {
	res := &Result{Stages: make([]StageResult, len(r.stages))}
	res.SpansRecorded = !r.opt.MakespanOnly || r.opt.Trace != nil
	end := 0.0
	for k := range r.stages {
		st := &r.stages[k]
		fin := st.free
		if r.opt.TailTime != nil {
			fin += r.opt.TailTime(k)
		}
		res.Stages[k] = StageResult{
			Spans: st.spans, ComputeTime: st.compute, Finish: fin, PeakAct: st.peak,
		}
		if fin > end {
			end = fin
		}
		if st.peak > res.PeakAct {
			res.PeakAct = st.peak
		}
	}
	res.IterTime = end
	busy := 0.0
	for k := range res.Stages {
		busy += res.Stages[k].ComputeTime
		if r.opt.TailTime != nil {
			busy += r.opt.TailTime(k)
		}
	}
	if end > 0 {
		res.BubbleRatio = 1 - busy/(float64(len(r.stages))*end)
	}
	res.OOM = r.oom
	res.OOMStage = r.oomAt
	return res
}
