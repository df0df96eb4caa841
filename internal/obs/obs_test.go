package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"mepipe/internal/sched"
)

func op(kind sched.Kind, micro int) sched.Op {
	return sched.Op{Kind: kind, Micro: micro}
}

// synthetic returns a tiny two-stage trace exercising every event kind.
func synthetic() []Event {
	return []Event{
		{Kind: EvOp, Stage: 0, From: 0, Op: op(sched.F, 0), Start: 0, End: 1},
		{Kind: EvAlloc, Stage: 0, From: 0, Op: op(sched.F, 0), Start: 0, End: 1, Bytes: 100, Live: 100},
		{Kind: EvComm, Stage: 1, From: 0, Op: op(sched.F, 0), Start: 1, End: 1.5, Bytes: 64},
		{Kind: EvStall, Stage: 1, From: 1, Op: op(sched.F, 0), Start: 0, End: 1.5, Cause: "dep"},
		{Kind: EvOp, Stage: 1, From: 1, Op: op(sched.F, 0), Start: 1.5, End: 2.5},
		{Kind: EvOp, Stage: 1, From: 1, Op: op(sched.B, 0), Start: 2.5, End: 4.5},
		{Kind: EvBudget, Stage: 0, From: 0, Op: op(sched.F, 1), Start: 2, End: 2},
		{Kind: EvOp, Stage: 0, From: 0, Op: op(sched.W, 0), Start: 2, End: 3, Cause: "drain-gap"},
		{Kind: EvFree, Stage: 0, From: 0, Op: op(sched.B, 0), Start: 5, End: 5, Bytes: 100, Live: 0},
		{Kind: EvOp, Stage: 0, From: 0, Op: op(sched.B, 0), Start: 4.5, End: 5},
	}
}

func record(t *testing.T, evs []Event) *Trace {
	t.Helper()
	rec := NewRecorder()
	for _, e := range evs {
		rec.Emit(e)
	}
	return rec.Trace()
}

func TestRecorderCanonicalOrder(t *testing.T) {
	tr := record(t, synthetic())
	for i := 1; i < len(tr.Events); i++ {
		a, b := tr.Events[i-1], tr.Events[i]
		if a.Start > b.Start || (a.Start == b.Start && a.Stage > b.Stage) {
			t.Fatalf("events %d,%d out of (start, stage) order: %+v then %+v", i-1, i, a, b)
		}
	}
	if tr.Stages != 2 {
		t.Errorf("Stages = %d, want 2", tr.Stages)
	}
	if tr.Makespan != 5 {
		t.Errorf("Makespan = %g, want 5 (latest op end)", tr.Makespan)
	}
	// busy = 1 + 1 + 2 + 1 + 0.5 = 5.5 over 2 stages * 5 s.
	if got, want := tr.Bubble, 1-5.5/10; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("Bubble = %g, want %g", got, want)
	}
	if got := len(tr.OpSpans(0)); got != 3 {
		t.Errorf("stage 0 op spans = %d, want 3", got)
	}
}

func TestRecorderResetAndLen(t *testing.T) {
	rec := NewRecorder()
	if rec.Len() != 0 {
		t.Fatalf("new recorder Len = %d", rec.Len())
	}
	rec.Emit(Event{Kind: EvOp})
	if rec.Len() != 1 {
		t.Fatalf("Len after one emit = %d", rec.Len())
	}
	rec.Reset()
	if rec.Len() != 0 || len(rec.Trace().Events) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestRecorderConcurrentEmit(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rec.Emit(Event{Kind: EvOp, Stage: g, Start: float64(i), End: float64(i) + 1})
			}
		}(g)
	}
	wg.Wait()
	if rec.Len() != 800 {
		t.Fatalf("concurrent Len = %d, want 800", rec.Len())
	}
}

func TestMulti(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	if got := Multi(a, nil); got != a {
		t.Error("Multi(a, nil) should collapse to a")
	}
	m := Multi(a, b)
	m.Emit(Event{Kind: EvOp})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out missed a sink: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.String() != "empty" {
		t.Errorf("empty histogram String = %q", h.String())
	}
	for _, v := range []float64{5e-7, 5e-4, 5e-4, 0.05, 100} {
		h.Observe(v)
	}
	if h.Count != 5 {
		t.Errorf("Count = %d", h.Count)
	}
	if h.Max != 100 {
		t.Errorf("Max = %g", h.Max)
	}
	if got, want := h.Mean(), (5e-7+5e-4+5e-4+0.05+100)/5; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if h.Buckets[0] != 1 || h.Buckets[3] != 2 || h.Buckets[numHistBounds] != 1 {
		t.Errorf("bucket placement wrong: %v", h.Buckets)
	}
	if s := h.String(); !strings.Contains(s, ">10s:1") {
		t.Errorf("String misses overflow bucket: %q", s)
	}
}

// TestHistogramQuantile pins the quantile estimate on known distributions:
// empty, one value, a uniform spread inside one bucket (where linear
// interpolation is exact), and values spread over several buckets.
func TestHistogramQuantile(t *testing.T) {
	of := func(vs ...float64) *Histogram {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		return &h
	}
	var uniform []float64 // 2 ms to 10 ms in 101 even steps
	for i := 0; i <= 100; i++ {
		uniform = append(uniform, 2e-3+float64(i)*8e-5)
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64
	}{
		{"empty p50", of(), 0.5, 0},
		{"empty p99", of(), 0.99, 0},
		{"one value p0", of(3e-4), 0, 3e-4},
		{"one value p50", of(3e-4), 0.5, 3e-4},
		{"one value p99", of(3e-4), 0.99, 3e-4},
		{"uniform p0", of(uniform...), 0, 2e-3},
		{"uniform p50", of(uniform...), 0.5, 6e-3},
		{"uniform p90", of(uniform...), 0.9, 9.2e-3},
		{"uniform p100", of(uniform...), 1, 1e-2},
		{"clamped below", of(uniform...), -1, 2e-3},
		{"clamped above", of(uniform...), 2, 1e-2},
		// 1 ms lands in the ≤1ms bucket, 2–10 ms in ≤10ms, which spans
		// (1 ms, 10 ms]: rank 5 of 10 is 4 of that bucket's 9.
		{"spread p50", of(1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3, 8e-3, 9e-3, 1e-2), 0.5, 1e-3 + 9e-3*4/9},
		{"spread p10", of(1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3, 8e-3, 9e-3, 1e-2), 0.1, 1e-3},
		// The overflow bucket spans (10 s, Max].
		{"overflow p99", of(5e-4, 20, 40), 0.99, 10 + 30*(2.97-1)/2},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12*math.Max(1, tc.want) {
			t.Errorf("%s: Quantile(%g) = %.15g, want %.15g", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestSnapshot(t *testing.T) {
	s := record(t, synthetic()).Snapshot()
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %d", len(s.Stages))
	}
	s0, s1 := s.Stages[0], s.Stages[1]
	if s0.Ops != 3 || s1.Ops != 2 {
		t.Errorf("ops = %d,%d want 3,2", s0.Ops, s1.Ops)
	}
	if s0.Forward != 1 || s0.Weight != 1 || s0.Backward != 0.5 {
		t.Errorf("stage 0 busy split = F%g W%g B%g", s0.Forward, s0.Weight, s0.Backward)
	}
	if s0.Drained != 1 {
		t.Errorf("stage 0 drained = %d, want 1", s0.Drained)
	}
	if s0.BudgetStalls != 1 {
		t.Errorf("stage 0 budget stalls = %d, want 1", s0.BudgetStalls)
	}
	if s0.PeakBytes != 100 || s.PeakBytes != 100 {
		t.Errorf("peak bytes = %d/%d, want 100", s0.PeakBytes, s.PeakBytes)
	}
	if s1.BytesIn != 64 || s0.BytesOut != 64 || s.CommBytes != 64 {
		t.Errorf("comm bytes in/out/total = %d/%d/%d, want 64", s1.BytesIn, s0.BytesOut, s.CommBytes)
	}
	if s1.StallTime["dep"] != 1.5 || s.StallTime["dep"] != 1.5 {
		t.Errorf("dep stall = %g/%g, want 1.5", s1.StallTime["dep"], s.StallTime["dep"])
	}
	if s1.QueueWait.Count != 1 {
		t.Errorf("queue-wait observations = %d, want 1", s1.QueueWait.Count)
	}
	if lines := s.Summary(); len(lines) < 2 || !strings.Contains(lines[0], "makespan") {
		t.Errorf("Summary = %q", lines)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := record(t, synthetic())
	var buf bytes.Buffer
	if err := (ChromeTrace{}).Export(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	// 5 ops + 1 stall + 1 comm as complete spans, 2 memory counters, 1
	// budget instant.
	if phases["X"] != 7 || phases["C"] != 2 || phases["i"] != 1 {
		t.Errorf("phase counts = %v, want X:7 C:2 i:1", phases)
	}

	buf.Reset()
	if err := (ChromeTrace{OmitCounters: true}).Export(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, e := range doc.TraceEvents {
		if e["ph"] == "C" {
			t.Fatal("OmitCounters left a counter event")
		}
	}
}

func TestJSONLExport(t *testing.T) {
	tr := record(t, synthetic())
	var buf bytes.Buffer
	if err := (JSONL{}).Export(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	kinds := map[string]int{}
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d invalid JSON: %v", n, err)
		}
		kinds[rec["kind"].(string)]++
		n++
	}
	if n != len(tr.Events) {
		t.Errorf("lines = %d, want %d", n, len(tr.Events))
	}
	for _, k := range []string{"op", "comm", "alloc", "free", "stall", "budget"} {
		if kinds[k] == 0 {
			t.Errorf("no %q line in JSONL output", k)
		}
	}
}

// TestTailEvents: a stage's tail after its last op counts toward the
// makespan and as busy time in the bubble, is summed per stage by
// Snapshot, and renders in both exporters.
func TestTailEvents(t *testing.T) {
	tr := record(t, []Event{
		{Kind: EvOp, Stage: 0, From: 0, Op: op(sched.F, 0), Start: 0, End: 1},
		{Kind: EvOp, Stage: 1, From: 1, Op: op(sched.F, 0), Start: 1, End: 2},
		{Kind: EvTail, Stage: 0, From: 0, Start: 1, End: 4},
		{Kind: EvTail, Stage: 1, From: 1, Start: 2, End: 3},
	})
	if tr.Makespan != 4 {
		t.Errorf("Makespan = %g, want 4 (stage 0's tail end)", tr.Makespan)
	}
	// busy = 1 + 1 + 3 + 1 = 6 over 2 stages * 4 s.
	if got, want := tr.Bubble, 1-6.0/8; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("Bubble = %g, want %g", got, want)
	}
	s := tr.Snapshot()
	if s.Stages[0].Tail != 3 || s.Stages[1].Tail != 1 || s.Stages[0].Forward != 1 {
		t.Errorf("stage tails %g, %g (forward %g), want 3, 1 (1)", s.Stages[0].Tail, s.Stages[1].Tail, s.Stages[0].Forward)
	}

	var buf bytes.Buffer
	if err := (ChromeTrace{}).Export(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	tails := 0
	for _, e := range doc.TraceEvents {
		if e["name"] == "tail" && e["ph"] == "X" && e["dur"].(float64) > 0 {
			tails++
		}
	}
	if tails != 2 {
		t.Errorf("%d Chrome tail spans, want 2: %v", tails, doc.TraceEvents)
	}

	buf.Reset()
	if err := (JSONL{}).Export(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"kind":"tail","stage":0,"op":"",`); got != 1 {
		t.Errorf("JSONL has %d stage-0 tail lines with no op, want 1:\n%s", got, buf.String())
	}
}
