package timeline

import (
	"encoding/json"
	"strings"
	"testing"

	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// trace records a unit-cost DAPPLE run on 3 stages with 4 micro-batches.
func trace(t *testing.T) *obs.Trace {
	t.Helper()
	s, err := sched.DAPPLE(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := sim.Run(sim.Options{Sched: s, Costs: sim.Unit(), Trace: rec}); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

func TestRenderShape(t *testing.T) {
	tr := trace(t)
	var sb strings.Builder
	if err := (ASCII{Unit: 0.5}).Export(&sb, tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // 3 stages + footer
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	for k := 0; k < 3; k++ {
		if !strings.HasPrefix(lines[k], "stage") {
			t.Errorf("line %d does not start with 'stage': %q", k, lines[k])
		}
		if !strings.Contains(lines[k], "F0") {
			t.Errorf("stage %d row missing first forward: %q", k, lines[k])
		}
	}
	if !strings.Contains(lines[3], "bubble") {
		t.Errorf("footer missing bubble ratio: %q", lines[3])
	}
	// Rows must be equally long (aligned chart).
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Error("rows not aligned")
	}
}

func TestRenderAutoUnit(t *testing.T) {
	tr := trace(t)
	var sb strings.Builder
	if err := (ASCII{}).Export(&sb, tr); err != nil { // auto-scale
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if len(line) > 200 {
			t.Fatalf("auto-scaled row too wide: %d cols", len(line))
		}
	}
}

func TestRenderOrder(t *testing.T) {
	s, err := sched.MEPipe(2, 1, 2, 2, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderOrder(&sb, s)
	out := sb.String()
	if !strings.Contains(out, "F0.0") || !strings.Contains(out, "b0.1") {
		t.Errorf("order rendering missing slice-annotated ops:\n%s", out)
	}
}

func TestChromeTrace(t *testing.T) {
	tr := trace(t)
	var sb strings.Builder
	if err := (obs.ChromeTrace{}).Export(&sb, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	want, ops := 3*2*4, 0 // stages × (F+B) × micros
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "F" && ev.Cat != "B" {
			continue
		}
		ops++
		if ev.Ph != "X" || ev.Dur <= 0 || ev.TID < 0 || ev.TID > 2 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if ops != want {
		t.Fatalf("%d op events, want %d", ops, want)
	}
}

func TestWriteSVG(t *testing.T) {
	tr := trace(t)
	var sb strings.Builder
	if err := (SVG{}).Export(&sb, tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	// One rect per op span (stages × (F+B) × micros) plus one background
	// per stage plus the canvas.
	if got, want := strings.Count(out, "<rect"), 3*2*4+3+1; got != want {
		t.Errorf("%d rects, want %d", got, want)
	}
	for _, frag := range []string{"stage 0", "stage 2", "bubble", "<title>"} {
		if !strings.Contains(out, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
}
