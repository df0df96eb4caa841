package sim_test

import (
	"math/rand"
	"testing"

	"mepipe/internal/cluster"
	"mepipe/internal/config"
	"mepipe/internal/memplan"
	"mepipe/internal/perf"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// orderFloorWorkload is the annealer's large point: the MEPipe schedule
// the strategy search builds for Llama-13B on 32 RTX 4090s (PP=8, DP=4,
// SPP=4, N=16, 7 weight-gradient pieces: 4,608 ops) with its real cost
// model, and 64 of the optimizer's shift proposals drawn from it that
// certify, each as a schedule of its own and as a move of the workload's
// order — the candidates the annealer's overlays evaluate.
func orderFloorWorkload(tb testing.TB) (sim.Options, []*sched.Schedule, []sim.Move) {
	tb.Helper()
	par := config.Parallel{PP: 8, DP: 4, CP: 1, SPP: 4, VP: 1}
	tr := config.Training{GlobalBatch: 64, MicroBatch: 1}
	m := config.Llama13B()
	mesh, err := cluster.NewMesh(cluster.RTX4090Cluster(4), par)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := tr.MicroBatches(par)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := memplan.NewWithReserve(m, mesh, 0)
	if err != nil {
		tb.Fatal(err)
	}
	costs, err := perf.New(m, mesh)
	if err != nil {
		tb.Fatal(err)
	}
	fam := costs.ActBytes(0, sched.Op{Kind: sched.F})
	grad := costs.GradBytes(0, sched.Op{Kind: sched.BAct})
	f, err := memplan.ChooseF(par, fam, grad, plan.ActBudget[0])
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sched.MEPipe(par.PP, par.VP, par.SPP, n, f, costs.WPieces(), costs)
	if err != nil {
		tb.Fatal(err)
	}
	if got := sched.IndexOf(s).Total(); got != 4608 {
		tb.Fatalf("the workload has %d ops, want 4,608", got)
	}
	rng := rand.New(rand.NewSource(1))
	var cands []*sched.Schedule
	var moves []sim.Move
	for len(cands) < 64 {
		c := *s
		c.Stages = append([][]sched.Op(nil), s.Stages...)
		k := rng.Intn(c.P)
		ops := append([]sched.Op(nil), c.Stages[k]...)
		c.Stages[k] = ops
		from := rng.Intn(len(ops))
		to := from + rng.Intn(17) - 8
		if to < 0 || to >= len(ops) || to == from {
			continue
		}
		op := ops[from]
		if from < to {
			copy(ops[from:], ops[from+1:to+1])
		} else {
			copy(ops[to+1:], ops[to:from])
		}
		ops[to] = op
		if _, err := verify.Certify(&c, verify.Options{}); err == nil {
			cands = append(cands, &c)
			lo, hi := min(from, to), max(from, to)
			moves = append(moves, sim.Move{Stage: k, Lo: lo, Ops: ops[lo : hi+1]})
		}
	}
	return sim.Options{Sched: s, Costs: costs}, cands, moves
}

// BenchmarkSessionSweep13B evaluates each proposal as a schedule of its
// own, by one warm session's dense sweep.
func BenchmarkSessionSweep13B(b *testing.B) {
	opt, cands, _ := orderFloorWorkload(b)
	se, err := sim.NewSession(opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cands {
		if _, err := se.Eval(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := se.Eval(cands[i%len(cands)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverlayEval13B evaluates each proposal as a move: one overlay
// Load and Eval on a session bound to the workload's order.
func BenchmarkOverlayEval13B(b *testing.B) {
	opt, _, moves := orderFloorWorkload(b)
	se, err := sim.NewSession(opt)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := se.Eval(opt.Sched); err != nil {
		b.Fatal(err)
	}
	ov, err := se.NewOverlay()
	if err != nil {
		b.Fatal(err)
	}
	eval := func(m sim.Move) {
		if err := ov.Load(m); err != nil {
			b.Fatal(err)
		}
		if _, err := ov.Eval(); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range moves {
		eval(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(moves[i%len(moves)])
	}
}

// TestSessionOrderFloor is the move overlay's floor against the session's
// own dense sweep, not only the reference runner: per certified shift
// proposal at the 13B point, an overlay Load and Eval must run at least
// 2× faster than a Session.Eval of the moved schedule, which re-solves
// every op in Kahn order, and allocate nothing.
func TestSessionOrderFloor(t *testing.T) {
	dense := testing.Benchmark(BenchmarkSessionSweep13B)
	inc := testing.Benchmark(BenchmarkOverlayEval13B)
	if dense.N == 0 || inc.N == 0 {
		t.Fatal("a benchmark failed to run")
	}
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	ratio := perOp(dense) / perOp(inc)
	t.Logf("Session.Eval %.0f ns, %d allocs; Overlay.Load+Eval %.0f ns, %d allocs; %.2f×",
		perOp(dense), dense.AllocsPerOp(), perOp(inc), inc.AllocsPerOp(), ratio)
	if a := inc.AllocsPerOp(); a != 0 {
		t.Errorf("Overlay.Load+Eval allocates %d times per proposal, want 0", a)
	}
	if ratio < 2 {
		t.Errorf("Overlay.Load+Eval is %.2f× Session.Eval, want ≥ 2×", ratio)
	}
}
