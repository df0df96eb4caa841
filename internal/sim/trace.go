package sim

import (
	"sort"

	"mepipe/internal/obs"
)

// Trace converts the result's executed spans into an obs.Trace of op
// events. It carries the exact makespan and bubble ratio of the run (which
// include tail time a span-only reconstruction would miss), so renderers
// and exporters working from a Result agree with its reported numbers.
//
// A trace built this way contains op events only; run the simulation with
// Options.Trace set to a Recorder to also capture comm, memory, stall and
// drain events.
func (r *Result) Trace() *obs.Trace {
	t := &obs.Trace{
		Stages:   len(r.Stages),
		Makespan: r.IterTime,
		Bubble:   r.BubbleRatio,
	}
	for k := range r.Stages {
		for _, sp := range r.Stages[k].Spans {
			t.Events = append(t.Events, obs.Event{
				Kind: obs.EvOp, Stage: k, From: k, Op: sp.Op,
				Start: sp.Start, End: sp.End,
			})
		}
	}
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].Start != t.Events[j].Start {
			return t.Events[i].Start < t.Events[j].Start
		}
		return t.Events[i].Stage < t.Events[j].Stage
	})
	return t
}

// traceWait emits the comm events feeding op id on stage k and classifies
// any idle gap between free (when the stage went idle) and start as a
// dependency or communication stall. fin holds the finish times of id's
// dependencies, all of which have executed.
func (se *Session) traceWait(k int, id int32, start, free float64, fin []float64) {
	const eps = 1e-12
	op := se.opsl[id]
	be, sized := se.opt.Costs.(BytesEstimator)
	depReady := 0.0 // latest dependency finish, communication excluded
	for e := se.depOff[id]; e < se.depOff[id+1]; e++ {
		d := se.depID[e]
		f := fin[d]
		if f > depReady {
			depReady = f
		}
		if from := int(se.stg[d]); from != k {
			var bytes int64
			if sized {
				bytes = be.CommBytes(from, k, se.opsl[d])
			}
			se.opt.Trace.Emit(obs.Event{
				Kind: obs.EvComm, Stage: k, From: from, Op: op,
				Start: f, End: f + se.depComm[e], Bytes: bytes,
			})
		}
	}
	if start <= free+eps {
		return // no idle gap
	}
	cause := "dep"
	if depReady <= free+eps {
		// Inputs were computed before the stage went idle; the wait is
		// purely tensors in flight.
		cause = "comm"
	}
	se.opt.Trace.Emit(obs.Event{
		Kind: obs.EvStall, Stage: k, From: k, Op: op,
		Start: free, End: start, Cause: cause,
	})
}

// emitOp emits op id's span on stage k; cause tags weight-gradient work the
// dynamic engine drained.
func (se *Session) emitOp(k int, id int32, start, end float64, cause string) {
	se.opt.Trace.Emit(obs.Event{
		Kind: obs.EvOp, Stage: k, From: k, Op: se.opsl[id],
		Start: start, End: end, Cause: cause,
	})
}

// emitMem emits the retention (EvAlloc) or release (EvFree) of bytes by op
// id's family at time at, with live the stage total after it. Zero-byte
// changes emit nothing.
func (se *Session) emitMem(kind obs.EventKind, k int, id int32, bytes, live int64, at float64) {
	if bytes == 0 {
		return
	}
	se.opt.Trace.Emit(obs.Event{
		Kind: kind, Stage: k, From: k, Op: se.opsl[id].Key(),
		Start: at, End: at, Bytes: bytes, Live: live,
	})
}
