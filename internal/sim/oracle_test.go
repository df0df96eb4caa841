package sim

import (
	"context"
	"fmt"
	"math"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// This file is the simulator's reference oracle: a map-based discrete-event
// replay that executes the earliest-startable action across stages, one op
// at a time, keyed by (stage, op). It is deliberately simple and slow — the
// readable spec of §5's execution engine that the Session (session.go,
// engine.go) must reproduce bitwise, events included. No production path
// reaches it; the differential tests and fuzzers compare against runRef.

type stageState struct {
	order   []sched.Op
	cursor  int
	free    float64
	compute float64
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

// runRef simulates one iteration with the reference runner.
func runRef(opt Options) (*Result, error) {
	s := opt.Sched
	if s == nil {
		return nil, fmt.Errorf("sim: nil schedule: %w", errs.ErrIncompatible)
	}
	if _, err := verify.Certify(s, verify.Options{}); err != nil {
		return nil, err
	}
	if opt.DynamicW && !s.SplitBW {
		return nil, fmt.Errorf("sim: dynamic weight-gradient mode requires a split-backward schedule: %w", errs.ErrIncompatible)
	}
	if opt.ActBudget != nil && len(opt.ActBudget) != s.P {
		return nil, fmt.Errorf("sim: ActBudget has %d entries, want %d: %w", len(opt.ActBudget), s.P, errs.ErrIncompatible)
	}
	r := &runner{opt: opt, s: s, ctx: context.Background(), finish: make(map[opRef]float64)}
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
	end := 0.0
	for k := range r.stages {
		st := &r.stages[k]
		fin := st.free
		if r.opt.TailTime != nil {
			fin += r.opt.TailTime(k)
			if r.opt.Trace != nil {
				r.opt.Trace.Emit(obs.Event{
					Kind: obs.EvTail, Stage: k, From: k, Start: st.free, End: fin,
				})
			}
		}
		res.Stages[k] = StageResult{ComputeTime: st.compute, Finish: fin, PeakAct: st.peak}
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
