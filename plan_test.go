package mepipe

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mepipe/internal/config"
	"mepipe/internal/strategy"
)

func job13B(gbs int) Job {
	return Job{
		Model:   Llama13B(),
		Cluster: RTX4090Cluster(8),
		Train:   Training{GlobalBatch: gbs, MicroBatch: 1},
	}
}

// table5 is MEPipe's Table 5 optimum for Llama 13B at GBS 64.
var table5 = Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1}

func TestPlanMEPipeAtPaperConfig(t *testing.T) {
	plan, err := PlanMEPipeAt(job13B(64), table5)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 8 {
		t.Errorf("n = %d, want 8", plan.N)
	}
	if plan.F < 4 || plan.F > 11 {
		t.Errorf("f = %d, want within [v·s, v·p+s−1] = [4, 11]", plan.F)
	}
	if plan.Schedule == nil || !plan.Schedule.SplitBW || plan.Schedule.WPieces == 0 {
		t.Error("plan schedule must be the full split + fine-grained MEPipe schedule")
	}
	rec := NewRecorder()
	res, err := plan.Simulate(context.Background(), strategy.WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("paper configuration should fit in 24 GB")
	}
	if res.IterTime < 2 || res.IterTime > 6 {
		t.Errorf("iteration %.2f s outside the plausible band", res.IterTime)
	}
	var sb strings.Builder
	if err := (ASCIITimeline{}).Export(&sb, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stage  0") {
		t.Error("timeline rendering incomplete")
	}
}

func TestPlanMEPipeSearches(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search is slow")
	}
	plan, err := PlanMEPipe(job13B(64))
	if err != nil {
		t.Fatal(err)
	}
	// Table 5: the search should land on PP=8, SPP=4, VP=1.
	if plan.Par.PP != 8 || plan.Par.SPP != 4 || plan.Par.VP != 1 {
		t.Errorf("planned %v, paper reports (PP=8, SPP=4, VP=1)", plan.Par)
	}
}

func TestPlanMEPipeAtErrors(t *testing.T) {
	// 34B at PP=4 cannot hold its own parameters.
	job := Job{
		Model:   Llama34B(),
		Cluster: RTX4090Cluster(8),
		Train:   Training{GlobalBatch: 128, MicroBatch: 1},
	}
	if _, err := PlanMEPipeAt(job, Parallel{PP: 4, DP: 16, CP: 1, SPP: 4, VP: 1}); err == nil {
		t.Error("34B at PP=4 should be rejected (static memory)")
	}
	// Wrong device count.
	if _, err := PlanMEPipeAt(job13B(64), Parallel{PP: 8, DP: 4, CP: 1, SPP: 4, VP: 1}); err == nil {
		t.Error("32-GPU strategy on 64-GPU cluster accepted")
	}
	// Indivisible batch.
	if _, err := PlanMEPipeAt(job13B(63), table5); err == nil {
		t.Error("indivisible global batch accepted")
	}
}

// TestPlanMEPipeAtIncompatible: the planner applies Evaluate's
// compatibility check — MEPipe never recomputes, so a recomputing strategy
// is rejected as ErrIncompatible instead of planned.
func TestPlanMEPipeAtIncompatible(t *testing.T) {
	par := table5
	par.Recompute = config.RecomputeFull
	plan, err := PlanMEPipeAt(job13B(64), par)
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("PlanMEPipeAt(%v) = %v, %v; want an error wrapping ErrIncompatible", par, plan, err)
	}
	if _, eerr := Evaluate(context.Background(), MEPipe, Llama13B(), RTX4090Cluster(8), par, job13B(64).Train); !errors.Is(eerr, ErrIncompatible) {
		t.Fatalf("Evaluate = %v, want ErrIncompatible like the planner", eerr)
	}
}

// TestPlanMEPipeOOMSentinels: both planning memory failures wrap ErrOOM —
// a strategy whose static memory exceeds the device, and a job no MEPipe
// configuration fits at all.
func TestPlanMEPipeOOMSentinels(t *testing.T) {
	job := Job{
		Model:   Llama34B(),
		Cluster: RTX4090Cluster(8),
		Train:   Training{GlobalBatch: 128, MicroBatch: 1},
	}
	if _, err := PlanMEPipeAt(job, Parallel{PP: 4, DP: 16, CP: 1, SPP: 4, VP: 1}); !errors.Is(err, ErrOOM) {
		t.Errorf("static memory failure %v does not wrap ErrOOM", err)
	}
	job.Cluster = RTX4090Cluster(1)
	if _, err := PlanMEPipe(job); !errors.Is(err, ErrOOM) {
		t.Errorf("no-fit search failure %v does not wrap ErrOOM", err)
	}
}

// TestPlanSimulateMatchesEvaluate: a plan simulates exactly as Evaluate
// does at the same point, bit for bit, because both run the one
// certify-and-simulate step.
func TestPlanSimulateMatchesEvaluate(t *testing.T) {
	job := job13B(64)
	plan, err := PlanMEPipeAt(job, table5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(context.Background(), MEPipe, job.Model, job.Cluster, table5, job.Train)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.IterTime) != math.Float64bits(ev.Result.IterTime) || !reflect.DeepEqual(got, ev.Result) {
		t.Errorf("plan simulates to %v s, Evaluate to %v s", got.IterTime, ev.Result.IterTime)
	}
	if plan.F != ev.F || plan.N != ev.N {
		t.Errorf("plan (n=%d, f=%d), Evaluate (n=%d, f=%d)", plan.N, plan.F, ev.N, ev.F)
	}
}
