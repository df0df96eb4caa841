package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// rootSpan names the span enclosing one replayed request.
const rootSpan = "replay"

// maxKept caps the spans held for the Chrome trace, so a long traced run of
// a fast workload stays small; the per-layer totals cover every request.
const maxKept = 50000

// tracer records the spans the benchmark opens around its calls into each
// layer. Spans of one request share a request id; when the request's root
// span ends, each span's self time (its duration minus its children's) is
// added to its layer's total. All methods are no-ops on a nil tracer, which
// is how an untraced replay makes the same calls.
type tracer struct {
	origin time.Time
	cur    []span // the open request's spans
	stack  []int  // indices into cur of the open spans
	req    int

	requests int
	wall     time.Duration            // total root-span duration
	self     map[string]time.Duration // total self time per span name
	kept     []chromeEvent
}

type span struct {
	name       string
	parent     int // index into the request's spans; -1 for the root
	start, end time.Duration
	children   time.Duration
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), self: map[string]time.Duration{}}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.cur = append(t.cur, span{name: name, parent: parent, start: time.Since(t.origin)})
	t.stack = append(t.stack, len(t.cur)-1)
}

// end closes the innermost open span; closing a root span folds the
// request into the totals.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.cur[i]
	s.end = time.Since(t.origin)
	if s.parent >= 0 {
		t.cur[s.parent].children += s.end - s.start
		return
	}
	t.requests++
	t.wall += s.end - s.start
	for _, s := range t.cur {
		t.self[s.name] += s.end - s.start - s.children
		if len(t.kept) < maxKept {
			parent := ""
			if s.parent >= 0 {
				parent = t.cur[s.parent].name
			}
			t.kept = append(t.kept, chromeEvent{
				Name: s.name, Ph: "X", Pid: 1, Tid: 1,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]any{"req": t.req, "parent": parent},
			})
		}
	}
	t.cur = t.cur[:0]
	t.req++
}

// span runs fn inside a span.
func (t *tracer) span(name string, fn func() error) error {
	t.begin(name)
	err := fn()
	t.end()
	return err
}

// request runs fn as one replayed request under a root span.
func (t *tracer) request(fn func() error) error {
	return t.span(rootSpan, fn)
}

// selfPerReq returns a layer's mean self time per request.
func (t *tracer) selfPerReq(name string) time.Duration {
	if t.requests == 0 {
		return 0
	}
	return t.self[name] / time.Duration(t.requests)
}

// coverage is the share of the replays' wall time spent inside layer spans
// rather than in the benchmark's own code between them.
func (t *tracer) coverage() float64 {
	if t.wall == 0 {
		return 0
	}
	return 1 - float64(t.self[rootSpan])/float64(t.wall)
}

// writeChrome writes the kept spans as a Chrome trace-event file.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": t.kept, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

// us and ms convert a duration to the metric units.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
