package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Exporter writes a recorded trace to a stream in some concrete format.
// timeline.ASCII and timeline.SVG render Gantt charts from the same
// interface, so every output path of the system — text, SVG, Chrome trace,
// JSONL — is one implementation of Exporter.
type Exporter interface {
	Export(w io.Writer, t *Trace) error
}

// chromeEvent is one entry of the Chrome trace-event format (loadable in
// Perfetto and chrome://tracing). Complete spans are ph "X", counters "C",
// instants "i".
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace exports the trace in Chrome trace-event JSON. Op spans,
// stalls and tails appear as complete events on pid 0 (one thread per stage),
// cross-stage transfers as spans on pid 1, and retained activation bytes as
// a per-stage counter track.
type ChromeTrace struct {
	// OmitCounters drops the memory counter track (useful when only the
	// op timeline matters).
	OmitCounters bool
}

// Export implements Exporter. Times are converted to microseconds, the
// unit the trace-event format specifies.
func (c ChromeTrace) Export(w io.Writer, t *Trace) error {
	evs := make([]chromeEvent, 0, len(t.Events))
	for _, e := range t.Events {
		switch e.Kind {
		case EvOp:
			ce := chromeEvent{
				Name: e.Op.String(), Cat: e.Op.Kind.String(), Ph: "X",
				TS: e.Start * 1e6, Dur: e.Dur() * 1e6,
				PID: 0, TID: e.Stage,
			}
			if e.Cause != "" || e.FLOPs > 0 {
				ce.Args = map[string]any{}
				if e.Cause != "" {
					ce.Args["cause"] = e.Cause
				}
				if e.FLOPs > 0 {
					ce.Args["gflop"] = float64(e.FLOPs) / 1e9
					if d := e.Dur(); d > 0 {
						ce.Args["gflops"] = float64(e.FLOPs) / 1e9 / d
					}
				}
			}
			evs = append(evs, ce)
		case EvStall:
			evs = append(evs, chromeEvent{
				Name: "stall:" + e.Cause, Cat: "stall", Ph: "X",
				TS: e.Start * 1e6, Dur: e.Dur() * 1e6,
				PID: 0, TID: e.Stage,
				Args: map[string]any{"for": e.Op.String()},
			})
		case EvComm:
			evs = append(evs, chromeEvent{
				Name: "recv " + e.Op.String(), Cat: "comm", Ph: "X",
				TS: e.Start * 1e6, Dur: e.Dur() * 1e6,
				PID: 1, TID: e.Stage,
				Args: map[string]any{"from": e.From, "bytes": e.Bytes},
			})
		case EvAlloc, EvFree:
			if c.OmitCounters {
				continue
			}
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("retained stage %d", e.Stage), Cat: "mem", Ph: "C",
				TS: e.End * 1e6, PID: 0, TID: e.Stage,
				Args: map[string]any{"bytes": e.Live},
			})
		case EvBudget:
			evs = append(evs, chromeEvent{
				Name: "budget-stall", Cat: "mem", Ph: "i",
				TS: e.Start * 1e6, PID: 0, TID: e.Stage, Scope: "t",
				Args: map[string]any{"deferred": e.Op.String()},
			})
		case EvFault:
			evs = append(evs, chromeEvent{
				Name: "fault:" + e.Cause, Cat: "fault", Ph: "i",
				TS: e.Start * 1e6, PID: 0, TID: e.Stage, Scope: "t",
				Args: map[string]any{"at": e.Op.String()},
			})
		case EvCkpt:
			evs = append(evs, chromeEvent{
				Name: "checkpoint", Cat: "fault", Ph: "i",
				TS: e.Start * 1e6, PID: 0, TID: e.Stage, Scope: "t",
				Args: map[string]any{"before": e.Op.String(), "bytes": e.Bytes},
			})
		case EvRestore:
			evs = append(evs, chromeEvent{
				Name: "restore", Cat: "fault", Ph: "X",
				TS: e.Start * 1e6, Dur: e.Dur() * 1e6,
				PID: 0, TID: e.Stage,
				Args: map[string]any{"replay-from": e.Op.String()},
			})
		case EvRetry:
			evs = append(evs, chromeEvent{
				Name: "retry", Cat: "fault", Ph: "i",
				TS: e.Start * 1e6, PID: 0, TID: e.Stage, Scope: "t",
				Args: map[string]any{"to": e.From, "cause": e.Cause},
			})
		case EvMove:
			evs = append(evs, chromeEvent{
				Name: "move:" + e.Cause, Cat: "opt", Ph: "i",
				TS: e.Start * 1e6, PID: 0, TID: e.Stage, Scope: "t",
				Args: map[string]any{"op": e.Op.String(), "iter": e.Start},
			})
		case EvTail:
			evs = append(evs, chromeEvent{
				Name: "tail", Cat: "tail", Ph: "X",
				TS: e.Start * 1e6, Dur: e.Dur() * 1e6,
				PID: 0, TID: e.Stage,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs})
}

// jsonlEvent is the flat JSONL record of one event.
type jsonlEvent struct {
	Kind  string  `json:"kind"`
	Stage int     `json:"stage"`
	From  int     `json:"from,omitempty"`
	Op    string  `json:"op"`
	Micro int     `json:"micro"`
	Slice int     `json:"slice"`
	Chunk int     `json:"chunk"`
	Piece int     `json:"piece,omitempty"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Bytes int64   `json:"bytes,omitempty"`
	Live  int64   `json:"live,omitempty"`
	FLOPs int64   `json:"flops,omitempty"`
	Cause string  `json:"cause,omitempty"`
}

// JSONL exports one JSON object per line — trivially consumable by jq,
// pandas, or a spreadsheet.
type JSONL struct{}

// Export implements Exporter.
func (JSONL) Export(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events {
		rec := jsonlEvent{
			Kind: e.Kind.String(), Stage: e.Stage,
			Op: e.Op.Kind.String(), Micro: e.Op.Micro, Slice: e.Op.Slice,
			Chunk: e.Op.Chunk, Piece: e.Op.Piece,
			Start: e.Start, End: e.End,
			Bytes: e.Bytes, Live: e.Live, FLOPs: e.FLOPs, Cause: e.Cause,
		}
		switch e.Kind {
		case EvComm:
			rec.From = e.From
		case EvTail:
			rec.Op = "" // a tail follows the stage's ops and names none
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
