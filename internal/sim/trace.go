package sim

import "mepipe/internal/obs"

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

// emitTail emits stage k's tail (optimizer step plus gradient
// synchronisation) from the end of its last op, at lastEnd, to its finish.
func (se *Session) emitTail(k int, lastEnd, finish float64) {
	se.opt.Trace.Emit(obs.Event{
		Kind: obs.EvTail, Stage: k, From: k, Start: lastEnd, End: finish,
	})
}
