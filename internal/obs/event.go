// Package obs is the observability layer shared by the discrete-event
// simulator (internal/sim) and the live goroutine runtime
// (internal/pipeline): both engines emit the same structured span events —
// op execution, cross-stage communication, activation memory traffic,
// schedule-induced stalls, §5 dynamic weight-gradient drains, and the
// simulator's gradient-sync tails — into a
// pluggable Sink. A Recorder sink collects events into a Trace, which
// aggregates into per-stage metrics (Snapshot) and exports to trace viewers
// (ChromeTrace for Perfetto / chrome://tracing, JSONL for ad-hoc tooling).
//
// The package is zero-dependency (stdlib plus the schedule IR) and adds no
// cost when no sink is attached: engines guard every emission on a nil
// check.
package obs

import "mepipe/internal/sched"

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvOp is one executed schedule op: [Start, End) on Stage. Cause is
	// empty for ops run at their scheduled position, "drain-gap" for
	// weight-gradient work drained into a dependency stall, and
	// "drain-budget" for work forced out by activation-memory pressure
	// (§5 dynamic mode).
	EvOp EventKind = iota
	// EvComm is a cross-stage tensor transfer feeding Op on Stage: it
	// leaves stage From at Start and is available on Stage at End.
	// Bytes carries the payload size when the engine knows it.
	EvComm
	// EvAlloc is activation/gradient memory retained on Stage when Op
	// completed: Bytes newly retained, Live the stage total after.
	EvAlloc
	// EvFree is the release of Op's family retention: Bytes freed, Live
	// the stage total after.
	EvFree
	// EvStall is schedule-induced idle time on Stage before Op could
	// start. Cause distinguishes "dep" (waiting on an upstream or
	// same-stage op) from "comm" (inputs computed but still in flight).
	EvStall
	// EvBudget is an instant marking that Op's admission on Stage was
	// deferred until weight-gradient work drained below the activation
	// budget (§5 memory pressure).
	EvBudget
	// EvFault is an instant marking an injected or real fault on Stage:
	// a crash before Op (Cause "crash") or an exhausted retry budget
	// (Cause "send"). Recovery, if any, follows as EvRestore.
	EvFault
	// EvCkpt is an instant marking a stage-level checkpoint taken on
	// Stage just before Op; Bytes carries the snapshot's payload size
	// when the runtime knows it.
	EvCkpt
	// EvRestore is the span of a stage restoring its last checkpoint
	// after a fault; replayed ops follow as EvOp spans with Cause
	// "replay".
	EvRestore
	// EvRetry is an instant marking one transient-failure retry of a
	// cross-stage send from Stage to the peer stage in From; Cause
	// carries the failure being retried.
	EvRetry
	// EvMove is an instant emitted by the schedule optimizer for each
	// candidate move it proposes: Stage is the stage the move touched, Op
	// the op it displaced, Start/End the candidate's simulated iteration
	// time (End == Start), and Cause "<operator>/<outcome>" — e.g.
	// "swap/accept", "shift/reject", "rebalance/infeasible".
	EvMove
	// EvTail is the span on Stage after its last op, until the stage's
	// iteration ends: the optimizer step plus gradient synchronisation
	// the simulator charges when it models them. It carries no Op.
	EvTail
)

// String returns the mnemonic used by the JSONL exporter.
func (k EventKind) String() string {
	switch k {
	case EvOp:
		return "op"
	case EvComm:
		return "comm"
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	case EvStall:
		return "stall"
	case EvBudget:
		return "budget"
	case EvFault:
		return "fault"
	case EvCkpt:
		return "ckpt"
	case EvRestore:
		return "restore"
	case EvRetry:
		return "retry"
	case EvMove:
		return "move"
	case EvTail:
		return "tail"
	}
	return "unknown"
}

// Event is one structured trace record. Times are seconds from the start of
// the iteration (simulated time in the simulator, wall-clock in the
// goroutine runtime).
type Event struct {
	Kind  EventKind
	Stage int      // stage the event happened on (the receiver for EvComm)
	From  int      // producing stage for EvComm, else equal to Stage
	Op    sched.Op // the op executed / fed / charged
	Start float64  // seconds
	End   float64  // seconds (== Start for instants)
	Bytes int64    // payload (EvComm), delta (EvAlloc/EvFree), or bytes freshly allocated during an EvOp
	Live  int64    // retained bytes on Stage after the event (memory kinds)
	FLOPs int64    // floating-point work of an EvOp's GEMMs (runtime only)
	Cause string   // stall/drain cause, empty otherwise
}

// Dur returns the event duration in seconds.
func (e Event) Dur() float64 { return e.End - e.Start }

// Sink receives events as an engine executes. Implementations must be safe
// for concurrent use: the goroutine runtime emits from one goroutine per
// stage.
type Sink interface {
	Emit(Event)
}

// multi fans one stream out to several sinks.
type multi []Sink

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi returns a sink that forwards every event to each of sinks. Nil
// entries are skipped; Multi() returns nil so the result can be attached
// unconditionally.
func Multi(sinks ...Sink) Sink {
	out := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
