package mepipe

// One benchmark per table and figure of the paper's evaluation (§7): each
// regenerates the corresponding result from the reproduction's models and
// simulator and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// re-derives the entire evaluation. Micro-benchmarks for the core engines
// (schedule generation, simulation, real pipelined execution) follow.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"mepipe/internal/bench"
	"mepipe/internal/data"
	"mepipe/internal/nn"
	"mepipe/internal/pipeline"
	"mepipe/internal/sched"
	"mepipe/internal/sim"
)

// runExperiment drives one registered experiment under the benchmark loop.
func runExperiment(b *testing.B, id string) *bench.Report {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// metric extracts the leading float from a table cell like "3520.3 ms".
func metric(b *testing.B, cell string) float64 {
	b.Helper()
	f := strings.Fields(cell)[0]
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(f, "%"), "x"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func findRow(b *testing.B, r *bench.Report, prefix string) []string {
	b.Helper()
	for _, row := range r.Rows {
		if strings.HasPrefix(row[0], prefix) {
			return row
		}
	}
	b.Fatalf("%s: no row %q", r.ID, prefix)
	return nil
}

// BenchmarkFig1 — bubble ratio vs peak activation memory (Fig 1).
func BenchmarkFig1(b *testing.B) {
	r := runExperiment(b, "fig1")
	b.ReportMetric(metric(b, findRow(b, r, "MEPipe (s=8)")[2]), "GiB-peak-act-s8")
	b.ReportMetric(metric(b, findRow(b, r, "DAPPLE")[2]), "GiB-peak-act-dapple")
}

// BenchmarkTable3 — analytic vs simulated bubble/memory (Table 3).
func BenchmarkTable3(b *testing.B) {
	r := runExperiment(b, "table3")
	b.ReportMetric(float64(len(r.Rows)), "rows")
}

// BenchmarkFig8 — Llama 13B end-to-end iteration times (Fig 8).
func BenchmarkFig8(b *testing.B) {
	r := runExperiment(b, "fig8")
	me := findRow(b, r, "MEPipe")
	b.ReportMetric(metric(b, me[1]), "ms-gbs32")
	b.ReportMetric(metric(b, me[2]), "ms-gbs64")
	b.ReportMetric(metric(b, me[3]), "ms-gbs128")
}

// BenchmarkTable5 — optimal configurations per system (Table 5).
func BenchmarkTable5(b *testing.B) {
	r := runExperiment(b, "table5")
	b.ReportMetric(float64(len(r.Rows)), "systems")
}

// BenchmarkTable6 — PP influence on DAPPLE (Table 6).
func BenchmarkTable6(b *testing.B) {
	r := runExperiment(b, "table6")
	b.ReportMetric(metric(b, r.Rows[2][4]), "ms-pp8")
}

// BenchmarkTable7 — CP influence on DAPPLE (Table 7).
func BenchmarkTable7(b *testing.B) {
	r := runExperiment(b, "table7")
	b.ReportMetric(metric(b, r.Rows[1][4]), "ms-cp2")
}

// BenchmarkFig9 — per-layer throughput vs CP/SPP size (Fig 9).
func BenchmarkFig9(b *testing.B) {
	r := runExperiment(b, "fig9")
	b.ReportMetric(100-metric(b, r.Rows[len(r.Rows)-1][2]), "pct-spp8-degradation")
}

// BenchmarkFig10 — iteration time across model sizes (Fig 10).
func BenchmarkFig10(b *testing.B) {
	r := runExperiment(b, "fig10")
	me := findRow(b, r, "MEPipe")
	b.ReportMetric(metric(b, me[1]), "ms-7b")
	b.ReportMetric(metric(b, me[2]), "ms-13b")
	b.ReportMetric(metric(b, me[3]), "ms-34b")
}

// BenchmarkTable8 — optimal configuration across model sizes (Table 8).
func BenchmarkTable8(b *testing.B) {
	r := runExperiment(b, "table8")
	b.ReportMetric(float64(len(r.Rows)), "systems")
}

// BenchmarkTable9 — A100 vs 4090 cost-effectiveness (Table 9).
func BenchmarkTable9(b *testing.B) {
	r := runExperiment(b, "table9")
	b.ReportMetric(metric(b, findRow(b, r, "llama-13b")[6]), "x-cost-effectiveness-13b")
}

// BenchmarkFig5Variants — SVPP memory variants and Fig 6 rescheduling.
func BenchmarkFig5Variants(b *testing.B) {
	r := runExperiment(b, "fig5")
	b.ReportMetric(metric(b, r.Rows[0][3]), "makespan-f8")
	b.ReportMetric(metric(b, r.Rows[2][3]), "makespan-f4")
}

// BenchmarkFig11_12 — fine-grained weight-gradient ablation (Figs 11–12).
func BenchmarkFig11_12(b *testing.B) {
	r := runExperiment(b, "fig11_12")
	b.ReportMetric(metric(b, findRow(b, r, "with fine-grained")[1]), "ms-with")
	b.ReportMetric(metric(b, findRow(b, r, "w/o: W fused")[1]), "ms-without")
}

// BenchmarkAblation — design-choice ablations from DESIGN.md §5.
func BenchmarkAblation(b *testing.B) {
	r := runExperiment(b, "ablation")
	b.ReportMetric(float64(len(r.Rows)), "variants")
}

// --- engine micro-benchmarks ---

// BenchmarkScheduleGeneration measures SVPP generation for a production
// shape (p=8, s=4, n=16, 7-piece W).
func BenchmarkScheduleGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := NewMEPipe(8, 1, 4, 16, 0, 7, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation measures one simulated iteration replay.
func BenchmarkSimulation(b *testing.B) {
	s, err := NewMEPipe(8, 1, 4, 16, 0, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	costs := sim.UniformCosts{Est: sched.UniformEst{F: 1, BAct: 1, WPiece: 0.2}, Act: 1, Grad: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Options{Sched: s, Costs: costs, DynamicW: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedIteration measures a real pipelined training iteration
// of the tiny decoder under the full MEPipe schedule.
func BenchmarkPipelinedIteration(b *testing.B) {
	cfg := nn.Config{Hidden: 16, Heads: 2, FFN: 32, Vocab: 29, Layers: 8, SeqLen: 16}
	m, err := nn.NewModel(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.MEPipe(4, 1, 2, 4, 0, nn.WeightGradGEMMs, nil)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := data.NewStream(cfg.Vocab, cfg.SeqLen, 7)
	if err != nil {
		b.Fatal(err)
	}
	batch := stream.Batch(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		r, err := pipeline.New(m, s, batch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialIteration is the single-goroutine reference for the
// pipelined iteration above.
func BenchmarkSequentialIteration(b *testing.B) {
	cfg := nn.Config{Hidden: 16, Heads: 2, FFN: 32, Vocab: 29, Layers: 8, SeqLen: 16}
	m, err := nn.NewModel(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := data.NewStream(cfg.Vocab, cfg.SeqLen, 7)
	if err != nil {
		b.Fatal(err)
	}
	batch := stream.Batch(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		if _, err := m.TrainSequential(batch, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertify measures structural certification of a large
// schedule.
func BenchmarkCertify(b *testing.B) {
	s, err := NewMEPipe(8, 1, 8, 32, 0, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CertifySchedule(s, CertifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFacade exercises the public API surface end to end.
func TestFacade(t *testing.T) {
	s, err := NewSVPP(SVPPOptions{P: 4, V: 1, S: 2, N: 4, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	res, err := Simulate(context.Background(), s, UnitCosts(), WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BubbleRatio(AnalyticSVPP, AnalyticParams{P: 4, V: 1, S: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.BubbleRatio - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("facade simulation bubble %v != analytic %v", res.BubbleRatio, want)
	}
	var sb strings.Builder
	if err := (ASCIITimeline{}).Export(&sb, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stage") {
		t.Error("timeline rendering empty")
	}
	if len(Experiments()) < 10 {
		t.Error("experiment registry too small")
	}
	// Planning a pinned paper configuration.
	plan, err := PlanMEPipeAt(Job{
		Model:   Llama13B(),
		Cluster: RTX4090Cluster(8),
		Train:   Training{GlobalBatch: 64, MicroBatch: 1},
	}, Parallel{PP: 8, DP: 8, CP: 1, SPP: 4, VP: 1})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := plan.Simulate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if simRes.OOM {
		t.Error("paper configuration should fit")
	}
	if simRes.IterTime < 1 || simRes.IterTime > 10 {
		t.Errorf("13B iteration %v s implausible", simRes.IterTime)
	}
}
