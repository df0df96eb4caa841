package obs

import (
	"sort"
	"sync"
)

// Recorder is a Sink that collects every event in memory. It is safe for
// concurrent emission; Trace takes a consistent copy.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Sink.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// Trace returns the recorded events as a Trace. Events are sorted by start
// time (stable, so same-instant events keep emission order — the goroutine
// runtime's per-stage streams interleave nondeterministically, and sorting
// gives exporters and golden tests a canonical order).
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	evs := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Stage < evs[j].Stage
	})
	t := &Trace{Events: evs}
	t.fill()
	return t
}

// Trace is a complete recorded iteration: the event stream plus the summary
// quantities exporters and renderers need.
type Trace struct {
	// Events in canonical (start-time, stage) order.
	Events []Event
	// Stages is 1 + the highest stage index seen.
	Stages int
	// Makespan is the latest end of an op or tail event.
	Makespan float64
	// Bubble is the aggregate idle fraction 1 − Σ busy / (stages ·
	// makespan), with op and tail events counted busy.
	Bubble float64
}

// fill derives Stages, Makespan and Bubble from the event stream.
func (t *Trace) fill() {
	busy := 0.0
	for _, e := range t.Events {
		if e.Stage >= t.Stages {
			t.Stages = e.Stage + 1
		}
		if e.Kind == EvComm && e.From >= t.Stages {
			t.Stages = e.From + 1
		}
		if e.Kind == EvOp || e.Kind == EvTail {
			if e.End > t.Makespan {
				t.Makespan = e.End
			}
			busy += e.Dur()
		}
	}
	if t.Makespan > 0 && t.Stages > 0 {
		t.Bubble = 1 - busy/(float64(t.Stages)*t.Makespan)
	}
}

// OpSpans returns the executed-op events of stage k in order.
func (t *Trace) OpSpans(k int) []Event {
	var out []Event
	for _, e := range t.Events {
		if e.Kind == EvOp && e.Stage == k {
			out = append(out, e)
		}
	}
	return out
}
