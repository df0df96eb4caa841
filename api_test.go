package mepipe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mepipe"
	"mepipe/internal/verify"
)

func svpp(t *testing.T) *mepipe.Schedule {
	t.Helper()
	s, err := mepipe.NewSVPP(mepipe.SVPPOptions{P: 4, V: 1, S: 2, N: 4, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSimulateWithTrace: the context-aware entry point simulates and
// traces, and attaching a trace does not perturb the result.
func TestSimulateWithTrace(t *testing.T) {
	s := svpp(t)
	rec := mepipe.NewRecorder()
	res, err := mepipe.Simulate(context.Background(), s, mepipe.UnitCosts(), mepipe.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("WithTrace recorded no events")
	}
	plain, err := mepipe.Simulate(context.Background(), s, mepipe.UnitCosts())
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime != plain.IterTime || res.BubbleRatio != plain.BubbleRatio {
		t.Errorf("traced Simulate (%g, %g) != untraced (%g, %g)",
			res.IterTime, res.BubbleRatio, plain.IterTime, plain.BubbleRatio)
	}

	snap := rec.Trace().Snapshot()
	if snap.Makespan <= 0 || len(snap.Stages) != 4 {
		t.Errorf("snapshot makespan %g over %d stages", snap.Makespan, len(snap.Stages))
	}
}

func TestSimulateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mepipe.Simulate(ctx, svpp(t), mepipe.UnitCosts())
	if !errors.Is(err, mepipe.ErrCancelled) {
		t.Fatalf("Simulate = %v, want ErrCancelled", err)
	}
}

func TestSearchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mepipe.Search(ctx, mepipe.MEPipe, mepipe.Llama13B(), mepipe.RTX4090Cluster(8),
		mepipe.Training{GlobalBatch: 64, MicroBatch: 1}, mepipe.DefaultSpace())
	if !errors.Is(err, mepipe.ErrCancelled) {
		t.Fatalf("Search = %v, want ErrCancelled", err)
	}
}

func TestEvaluateSentinels(t *testing.T) {
	m := mepipe.Llama13B()
	cl := mepipe.RTX4090Cluster(8)
	tr := mepipe.Training{GlobalBatch: 64, MicroBatch: 1}
	_, err := mepipe.Evaluate(context.Background(), mepipe.DAPPLE, m, cl,
		mepipe.Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}, tr)
	if !errors.Is(err, mepipe.ErrIncompatible) {
		t.Errorf("Evaluate with slices under DAPPLE: %v, want ErrIncompatible", err)
	}
}

// TestExporterUnification: every output format flows through the single
// Exporter interface.
func TestExporterUnification(t *testing.T) {
	rec := mepipe.NewRecorder()
	if _, err := mepipe.Simulate(context.Background(), svpp(t), mepipe.UnitCosts(), mepipe.WithTrace(rec)); err != nil {
		t.Fatal(err)
	}
	trace := rec.Trace()

	var ascii bytes.Buffer
	if err := (mepipe.ASCIITimeline{}).Export(&ascii, trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii.String(), "stage") {
		t.Error("ASCII output empty")
	}

	var svg bytes.Buffer
	if err := (mepipe.SVGTimeline{}).Export(&svg, trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Error("SVG output empty")
	}

	var chrome bytes.Buffer
	if err := (mepipe.ChromeTrace{}).Export(&chrome, trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("Chrome export empty")
	}

	var jsonl bytes.Buffer
	if err := (mepipe.JSONLTrace{}).Export(&jsonl, trace); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(jsonl.String(), "\n"); lines != len(doc.TraceEvents) {
		t.Errorf("JSONL lines %d != Chrome events %d (one each per recorded event)", lines, len(doc.TraceEvents))
	}
}

// TestSearchFindsOptimum: the search entry point finds the paper's
// optimum on a pinned slice of the grid.
func TestSearchFindsOptimum(t *testing.T) {
	res, err := mepipe.Search(context.Background(), mepipe.MEPipe, mepipe.Llama13B(),
		mepipe.RTX4090Cluster(8),
		mepipe.Training{GlobalBatch: 64, MicroBatch: 1},
		mepipe.SearchSpace{PP: []int{8}, SPP: []int{4}, MinDP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best() == nil {
		t.Fatal("Search found no feasible candidate")
	}
}

// TestLoadScheduleCertifies: LoadSchedule certifies what it decodes, so
// a saved DAPPLE(2,2) file tampered into a deadlock (stage 0's backwards
// before its forwards) or cut short is rejected with the certifier's
// counterexample, and the untampered file loads.
func TestLoadScheduleCertifies(t *testing.T) {
	s, err := mepipe.NewDAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	const stage0 = `[[0,0,0,0,0],[0,1,0,0,0],[1,0,0,0,0],[1,1,0,0,0]]`
	if !strings.Contains(buf.String(), stage0) {
		t.Fatalf("test setup: stage encoding not found in %s", buf.String())
	}
	if _, err := mepipe.LoadSchedule(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("untampered file: %v", err)
	}
	deadlock := strings.Replace(buf.String(), stage0, `[[1,0,0,0,0],[1,1,0,0,0],[0,0,0,0,0],[0,1,0,0,0]]`, 1)
	_, err = mepipe.LoadSchedule(strings.NewReader(deadlock))
	var cycle *verify.CycleError
	if !errors.As(err, &cycle) || !errors.Is(err, mepipe.ErrUncertified) {
		t.Fatalf("deadlocking file: got %v, want a *verify.CycleError", err)
	}
	short := strings.Replace(buf.String(), stage0, `[[0,0,0,0,0],[0,1,0,0,0],[1,0,0,0,0]]`, 1)
	_, err = mepipe.LoadSchedule(strings.NewReader(short))
	var incomplete *verify.IncompleteError
	if !errors.As(err, &incomplete) {
		t.Fatalf("short file: got %v, want a *verify.IncompleteError", err)
	}
}
