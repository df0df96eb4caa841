package sim_test

import (
	"context"
	"reflect"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/memplan"
	"mepipe/internal/obs"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// planningGrid lists the MEPipe points of the cold /v1/search benchmark
// point's grid — four 8×RTX 4090 servers, global batch 32, the default
// search space (PP 2–32, SPP 1–32, VP 1–2, DP ≥ 2) — in grid order.
func planningGrid(gpus int, tr config.Training) []config.Parallel {
	var cands []config.Parallel
	for _, pp := range []int{2, 4, 8, 16, 32} {
		if gpus%pp != 0 {
			continue
		}
		for _, spp := range []int{1, 2, 4, 8, 16, 32} {
			for _, vp := range []int{1, 2} {
				par := config.Parallel{PP: pp, DP: gpus / pp, CP: 1, SPP: spp, VP: vp}
				if par.Validate() != nil || par.Devices() != gpus || par.DP < 2 || tr.GlobalBatch%par.DP != 0 {
					continue
				}
				cands = append(cands, par)
			}
		}
	}
	return cands
}

// TestPlanningGridEvaluateMatchesRun holds the pooled session evaluation to
// the reference runner on the planning grid's own candidates — up to S=32
// slices and 7 weight-gradient pieces, shapes the fuzzers never reach: for
// every simulated candidate, sim.Evaluate must DeepEqual sim.RunRef, and
// a traced Evaluate must record exactly the reference runner's events.
// The schedules are rebuilt the way the strategy search builds MEPipe
// points: mesh, memory plan, cost model, the SVPP variant that fits the
// activation budget, and the dynamic W engine.
func TestPlanningGridEvaluateMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every simulated candidate of the planning grid three times")
	}
	m, cl, tr := config.Llama13B(), cluster.RTX4090Cluster(4), config.Training{GlobalBatch: 32, MicroBatch: 1}
	cands := planningGrid(cl.GPUs(), tr)
	simulated, maxS, maxPieces := 0, 0, 0
	for _, par := range cands {
		mesh, err := cluster.NewMesh(cl, par)
		if err != nil {
			continue
		}
		n, err := tr.MicroBatches(par)
		if err != nil {
			continue
		}
		plan, err := memplan.NewWithReserve(m, mesh, 0)
		if err != nil || !plan.Feasible() {
			continue
		}
		costs, err := perf.New(m, mesh)
		if err != nil {
			continue
		}
		fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
		grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})
		f, err := memplan.ChooseF(par, fam, grad, plan.ActBudget[0])
		if err != nil {
			continue
		}
		s, err := sched.MEPipe(par.PP, par.VP, par.SPP, n, f, costs.WPieces(), costs)
		if err != nil {
			continue
		}
		if _, err := verify.Certify(s, verify.Options{}); err != nil {
			t.Fatalf("%v: %v", par, err)
		}
		opt := sim.Options{Sched: s, Costs: costs, ActBudget: plan.ActBudget, DynamicW: true, TailTime: costs.TailTime}
		refRec := obs.NewRecorder()
		refOpt := opt
		refOpt.Trace = refRec
		want, err := sim.RunRef(refOpt)
		if err != nil {
			t.Fatalf("%v: RunRef: %v", par, err)
		}
		got, err := sim.Evaluate(context.Background(), opt)
		if err != nil {
			t.Fatalf("%v: Evaluate: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Evaluate differs from RunRef: iter %v vs %v, peak %d vs %d, oom %v vs %v",
				par, got.IterTime, want.IterTime, got.PeakAct, want.PeakAct, got.OOM, want.OOM)
		}
		rec := obs.NewRecorder()
		opt.Trace = rec
		if _, err := sim.Evaluate(context.Background(), opt); err != nil {
			t.Fatalf("%v: traced Evaluate: %v", par, err)
		}
		if gt, wt := rec.Trace(), refRec.Trace(); !reflect.DeepEqual(gt, wt) {
			t.Errorf("%v: traced Evaluate records %d events, RunRef %d; recordings differ", par, len(gt.Events), len(wt.Events))
		}
		simulated++
		maxS = max(maxS, s.S)
		maxPieces = max(maxPieces, s.WPieces)
	}
	if len(cands) != 48 || simulated != 14 || maxS != 32 || maxPieces != 7 {
		t.Fatalf("planning grid moved: %d points, %d simulated, S up to %d, %d W pieces; want 48, 14, 32, 7",
			len(cands), simulated, maxS, maxPieces)
	}
}
