package sim

import (
	"fmt"
	"math"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// engState is the Session's dynamic-mode (§5) execution engine: a dense
// replay of the reference runner's event loop (oracle_test.go) over the
// session's id tables. Dynamic W drain order depends on runtime decisions
// across stages, so there is no local window to re-solve — instead the
// engine mirrors the runner op-for-op (same tie-breaks, same math.Max
// calls, same epsilon, same trace events) on arrays that are allocated
// once and reused across Evals.
type engState struct {
	cursor []int // per stage: position of the next scheduled (non-W) op
	free   []float64
	comp   []float64
	live   []int64
	peak   []int64
	drain  []int64
	wq     [][]wRef
	wqHead []int
	fin    []float64
	done   []uint32
	ep     uint32
	// next caches each stage's engStart answer, and ready/readyOK the
	// engReady answer for its cursor op that engStart computed on the
	// way, so engExecute never asks twice; stale marks the stages an
	// executed op may have changed — its own stage and its dependents'
	// stages, the only ones whose readiness can move (the generator's
	// dirty pattern).
	next    []float64
	nextOK  []bool
	ready   []float64
	readyOK []bool
	stale   []bool
	oom     bool
	oomAt   int
	// ran holds the ids each stage ran, in order (WriteOrder's record):
	// stage k's run starts at k·PerStage and nran[k] is its length.
	ran  []int32
	nran []int32
}

type wRef struct {
	id    int32
	ready float64
}

func (se *Session) runEngine() error {
	e := se.eng
	if e == nil {
		e = &engState{}
		se.eng = e
	}
	e.cursor = sgrow(e.cursor, se.P)
	e.free = sgrow(e.free, se.P)
	e.comp = sgrow(e.comp, se.P)
	e.live = sgrow(e.live, se.P)
	e.peak = sgrow(e.peak, se.P)
	e.drain = sgrow(e.drain, se.P)
	e.wq = sgrow(e.wq, se.P)
	e.wqHead = sgrow(e.wqHead, se.P)
	e.fin = sgrow(e.fin, se.n)
	e.done = sgrow(e.done, se.n)
	e.next = sgrow(e.next, se.P)
	e.nextOK = sgrow(e.nextOK, se.P)
	e.ready = sgrow(e.ready, se.P)
	e.readyOK = sgrow(e.readyOK, se.P)
	e.stale = sgrow(e.stale, se.P)
	e.ran = sgrow(e.ran, se.n)
	e.nran = sgrow(e.nran, se.P)
	e.ep++
	se.fam.epoch++
	e.oom = false
	e.oomAt = 0
	for k := 0; k < se.P; k++ {
		e.cursor[k] = 0
		se.engSkip(k)
		e.free[k] = 0
		e.comp[k] = 0
		e.live[k] = 0
		e.peak[k] = 0
		e.drain[k] = 0
		e.wq[k] = e.wq[k][:0]
		e.wqHead[k] = 0
		e.stale[k] = true
		e.nran[k] = 0
	}
	done := 0
	for done < se.n {
		k, ok := se.engNext()
		if !ok {
			return fmt.Errorf("sim: session: deadlock with %d/%d ops executed (schedule order violates dependencies): %w", done, se.n, errs.ErrUncertified)
		}
		done += se.engExecute(k)
	}
	return nil
}

// engSkip advances stage k's cursor past statically-placed W/WPiece entries;
// the engine executes those from the per-stage queue instead, exactly as
// the runner strips them from its order.
func (se *Session) engSkip(k int) {
	e := se.eng
	ord := se.order[k]
	c := e.cursor[k]
	for c < len(ord) {
		kd := se.opsl[ord[c]].Kind
		if kd != sched.W && kd != sched.WPiece {
			break
		}
		c++
	}
	e.cursor[k] = c
}

// engNext mirrors the runner's nextStage: earliest next start wins, ties go
// to the lowest stage. Only stale stages recompute their start.
func (se *Session) engNext() (int, bool) {
	e := se.eng
	best, bestStart, found := -1, math.Inf(1), false
	for k := 0; k < se.P; k++ {
		if e.stale[k] {
			e.stale[k] = false
			e.next[k], e.nextOK[k] = se.engStart(k)
		}
		if e.nextOK[k] && e.next[k] < bestStart {
			best, bestStart, found = k, e.next[k], true
		}
	}
	return best, found
}

// engStart returns when stage k can begin its next action, or false when
// it has none runnable (its list and queue are drained, or its next
// scheduled op is blocked with an empty queue). It caches the cursor op's
// readiness for engExecute.
func (se *Session) engStart(k int) (float64, bool) {
	e := se.eng
	if e.cursor[k] < len(se.order[k]) {
		id := se.order[k][e.cursor[k]]
		rt, ok := se.engReady(id)
		e.ready[k], e.readyOK[k] = rt, ok
		if ok {
			return max(e.free[k], rt), true
		}
		// Next scheduled op blocked: a queued W can still run.
	}
	if e.wqHead[k] < len(e.wq[k]) {
		return max(e.free[k], e.wq[k][e.wqHead[k]].ready), true
	}
	return 0, false
}

func (se *Session) engReady(id int32) (float64, bool) {
	e := se.eng
	t := 0.0
	for ed := se.depOff[id]; ed < se.depOff[id+1]; ed++ {
		d := se.depID[ed]
		if e.done[d] != e.ep {
			return 0, false
		}
		f := e.fin[d] + se.depComm[ed]
		if f > t {
			t = f
		}
	}
	return t, true
}

// engExecute runs stage k's next action. engNext has just refreshed every
// stale stage, so k's cached readiness is its cursor op's current one.
func (se *Session) engExecute(k int) int {
	e := se.eng
	if e.cursor[k] < len(se.order[k]) {
		id := se.order[k][e.cursor[k]]
		if e.readyOK[k] {
			start := max(e.free[k], e.ready[k])
			if n := se.engFillGap(k, start, id); n > 0 {
				return n
			}
			if se.opt.Trace != nil {
				se.traceWait(k, id, start, e.free[k], e.fin)
			}
			e.cursor[k]++
			se.engSkip(k)
			se.engRunOp(k, id, start, "")
			return 1
		}
		if e.wqHead[k] < len(e.wq[k]) {
			return se.engPopW(k, "drain-gap")
		}
		return 0
	}
	if e.wqHead[k] < len(e.wq[k]) {
		return se.engPopW(k, "drain-tail")
	}
	return 0
}

// engFillGap mirrors the runner's fillGap: drain a queued W that fits the
// stall before start, or — under memory pressure that draining can actually
// cover — before admitting an allocating op.
func (se *Session) engFillGap(k int, start float64, nextID int32) int {
	e := se.eng
	if e.wqHead[k] >= len(e.wq[k]) {
		return 0
	}
	w := e.wq[k][e.wqHead[k]]
	wStart := max(e.free[k], w.ready)
	dur := se.dur[w.id]
	const eps = 1e-9
	if wStart+dur <= start+eps {
		return se.engPopW(k, "drain-gap")
	}
	if se.hasBudget {
		need := se.memB[nextID] // what the op retains, if it retains
		if need > 0 && e.live[k]+need > se.budget[k] {
			if e.live[k]+need-e.drain[k] > se.budget[k] {
				// Uncoverable overshoot: admit the op and let its
				// allocation flag the OOM (see runner.fillGap in
				// oracle_test.go).
				return 0
			}
			if se.opt.Trace != nil {
				se.opt.Trace.Emit(obs.Event{
					Kind: obs.EvBudget, Stage: k, From: k, Op: se.opsl[nextID],
					Start: e.free[k], End: e.free[k],
					Bytes: need, Live: e.live[k],
				})
			}
			return se.engPopW(k, "drain-budget")
		}
	}
	return 0
}

// engPopW executes the head of stage k's W queue; cause tags the drain in
// traces.
func (se *Session) engPopW(k int, cause string) int {
	e := se.eng
	w := e.wq[k][e.wqHead[k]]
	e.wqHead[k]++
	if e.wqHead[k] == len(e.wq[k]) {
		e.wq[k] = e.wq[k][:0]
		e.wqHead[k] = 0
	}
	start := max(e.free[k], w.ready)
	se.engRunOp(k, w.id, start, cause)
	return 1
}

func (se *Session) engRunOp(k int, id int32, start float64, cause string) {
	e := se.eng
	dur := se.dur[id]
	end := start + dur
	e.free[k] = end
	e.comp[k] += dur
	e.fin[id] = end
	e.done[id] = e.ep
	e.ran[k*se.x.PerStage()+int(e.nran[k])] = id
	e.nran[k]++
	if se.opt.Trace != nil {
		se.emitOp(k, id, start, end, cause)
	}
	e.stale[k] = true
	for d := se.sucOff[id]; d < se.sucOff[id+1]; d++ {
		e.stale[se.stg[se.sucID[d]]] = true
	}
	switch r, b := se.memStep(id); r {
	case sched.RetainAct, sched.RetainGrad:
		e.live[k] += b
		e.peak[k] = max(e.peak[k], e.live[k])
		if se.opt.Trace != nil {
			se.emitMem(obs.EvAlloc, k, id, b, e.live[k], end)
		}
		// Dynamic mode is OOM exactly when draining every queued weight
		// gradient could not bring the stage back under budget.
		if se.hasBudget && !e.oom && e.live[k] > se.budget[k] && e.live[k]-e.drain[k] > se.budget[k] {
			e.oom = true
			e.oomAt = k
		}
		if r == sched.RetainGrad {
			se.engEnqueueW(k, id, end)
		}
	case sched.Release:
		// Dynamic mode splits every backward, so the release is the
		// family's queued weight-gradient work: its bytes stop being
		// drainable.
		e.drain[k] -= b
		e.live[k] -= b
		if se.opt.Trace != nil {
			se.emitMem(obs.EvFree, k, id, b, e.live[k], end)
		}
	}
}

// engEnqueueW queues the family's weight-gradient ops and makes
// its retained bytes drainable, mirroring the runner's enqueueW.
func (se *Session) engEnqueueW(k int, bID int32, ready float64) {
	e := se.eng
	e.drain[k] += se.fam.acc[se.famID[bID]]
	lo, hi := se.x.WeightGrads(bID)
	for w := lo; w < hi; w++ {
		e.wq[k] = append(e.wq[k], wRef{w, ready})
	}
}

// assembleDynamic writes the Result from the engine's per-stage state, and
// emits the tail events, in the runner's result() float-operation order.
func (se *Session) assembleDynamic() {
	e := se.eng
	res := &se.res
	res.PeakAct = 0
	end := 0.0
	for k := 0; k < se.P; k++ {
		fin := e.free[k]
		if se.hasTail {
			fin += se.tailV[k]
			if se.opt.Trace != nil {
				se.emitTail(k, e.free[k], fin)
			}
		}
		res.Stages[k] = StageResult{ComputeTime: e.comp[k], Finish: fin, PeakAct: e.peak[k]}
		if fin > end {
			end = fin
		}
		if e.peak[k] > res.PeakAct {
			res.PeakAct = e.peak[k]
		}
	}
	res.IterTime = end
	busy := 0.0
	for k := 0; k < se.P; k++ {
		busy += e.comp[k]
		if se.hasTail {
			busy += se.tailV[k]
		}
	}
	res.BubbleRatio = 0
	if end > 0 {
		res.BubbleRatio = 1 - busy/(float64(se.P)*end)
	}
	res.OOM = e.oom
	res.OOMStage = e.oomAt
}
