package profile

import (
	"math"
	"runtime"
	"testing"

	"mepipe/internal/nn"
	"mepipe/internal/sched"
)

// TestFitRecoversPlantedModel: synthetic samples from a known (tau, rate)
// must be recovered exactly.
func TestFitRecoversPlantedModel(t *testing.T) {
	const tau, rate = 48.0, 3e-6
	var samples []Sample
	for _, tok := range []int{16, 32, 64, 128, 256} {
		samples = append(samples, Sample{tok, rate * (float64(tok) + tau)})
	}
	gotTau, gotRate, err := FitThroughput(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotTau-tau) > 1e-6 || math.Abs(gotRate-rate)/rate > 1e-9 {
		t.Errorf("fit = (tau %.3f, rate %.3g), want (%.3f, %.3g)", gotTau, gotRate, tau, rate)
	}
	if re := RelativeError(samples, gotTau, gotRate); re > 1e-9 {
		t.Errorf("perfect data should fit perfectly, residual %g", re)
	}
}

func TestFitErrors(t *testing.T) {
	if _, _, err := FitThroughput(nil); err == nil {
		t.Error("empty samples accepted")
	}
	if _, _, err := FitThroughput([]Sample{{8, 1}, {8, 2}}); err == nil {
		t.Error("degenerate samples accepted")
	}
	if _, _, err := FitThroughput([]Sample{{8, 2}, {16, 1}, {32, 0.5}}); err == nil {
		t.Error("decreasing timings accepted")
	}
	if _, _, err := FitThroughput([]Sample{{0, 1}, {8, 2}}); err == nil {
		t.Error("zero-token sample accepted")
	}
}

// TestMeasureRealKernels: real measurements of the tiny decoder must be
// positive, grow with width, and fit the saturating model reasonably.
func TestMeasureRealKernels(t *testing.T) {
	m, err := nn.NewModel(nn.Config{Hidden: 32, Heads: 2, FFN: 64, Vocab: 17, Layers: 1, SeqLen: 256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lt := &LayerTimer{Model: m, Reps: 3}
	fwd, bwd := lt.Measure([]int{16, 64, 256})
	for i := 1; i < len(fwd); i++ {
		if fwd[i].Seconds <= 0 || bwd[i].Seconds <= 0 {
			t.Fatal("non-positive timing")
		}
		if fwd[i].Seconds < fwd[i-1].Seconds/2 {
			t.Errorf("forward time shrank drastically with 4x width: %+v", fwd)
		}
	}
	tau, rate, err := FitThroughput(fwd)
	if err != nil {
		t.Fatalf("fitting real forward timings: %v (%+v)", err, fwd)
	}
	if rate <= 0 || tau < 0 {
		t.Errorf("implausible fit tau=%v rate=%v", tau, rate)
	}
}

// TestMeasuredEstimatorShape: durations respect the kind semantics (BAct +
// W == B; pieces split W evenly; later slices cost more).
func TestMeasuredEstimatorShape(t *testing.T) {
	e := MeasuredEstimator{
		FwdPerToken: 1e-6, BwdPerToken: 2e-6, Tau: 32,
		LayersPerChunk: 2, SliceTokens: 64, Slices: 4, WShare: 0.4, Pieces: 4,
	}
	op := sched.Op{Kind: sched.B, Slice: 1}
	b := e.OpTime(0, op)
	op.Kind = sched.BAct
	ba := e.OpTime(0, op)
	op.Kind = sched.W
	w := e.OpTime(0, op)
	if math.Abs(ba+w-b) > 1e-12 {
		t.Errorf("BAct %v + W %v != B %v", ba, w, b)
	}
	var pieces float64
	for i := 0; i < 4; i++ {
		pc := sched.Op{Kind: sched.WPiece, Slice: 1, Piece: i}
		pieces += e.OpTime(0, pc)
	}
	if math.Abs(pieces-w) > 1e-12 {
		t.Errorf("pieces sum %v != whole W %v", pieces, w)
	}
	f0 := e.OpTime(0, sched.Op{Kind: sched.F, Slice: 0})
	f3 := e.OpTime(0, sched.Op{Kind: sched.F, Slice: 3})
	if f3 <= f0 {
		t.Error("later slices should cost more (causal attention)")
	}
	if e.CommTime(0, 1, op) != 0 {
		t.Error("measured estimator has no comm model")
	}
}

// TestMeasureSliceOpsShape: real per-slice measurements show the causal
// growth (later slices cost more forward) while weight-gradient work stays
// flat — the §5 premise, observed on real kernels.
func TestMeasureSliceOpsShape(t *testing.T) {
	m, err := nn.NewModel(nn.Config{Hidden: 32, Heads: 2, FFN: 64, Vocab: 17, Layers: 1, SeqLen: 512}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Under the CPU contention of packages tested in parallel, a GEMM
	// fanned out to the kernel pool waits for whichever worker was
	// descheduled, and five-rep medians could invert the causal growth.
	// With one P the kernel workers share the measuring thread, so no
	// GEMM waits on a descheduled one, and 25 reps spread the medians
	// over a few hundred milliseconds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	table, err := MeasureSliceOps(m, 4, 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.F) != 4 {
		t.Fatalf("%d forward entries, want 4", len(table.F))
	}
	for i := 0; i < 4; i++ {
		if table.F[i] <= 0 || table.BAct[i] <= 0 || table.W[i] <= 0 {
			t.Fatalf("slice %d: non-positive timing", i)
		}
	}
	// Causal attention: the last slice's forward should exceed the
	// first's (noise-tolerant: ≥ 1.0x would be flaky, demand the sum of
	// later halves beats the earlier half).
	early := table.F[0] + table.F[1]
	late := table.F[2] + table.F[3]
	t.Logf("forward, slices 0+1: %.3gs, slices 2+3: %.3gs", early, late)
	if late <= early {
		t.Errorf("later slices (%.2gs) not slower than earlier (%.2gs)", late, early)
	}
	// The estimator must be usable by the generator.
	if _, err := sched.MEPipe(2, 1, 4, 2, 0, table.Pieces, table); err != nil {
		t.Fatal(err)
	}
	if table.OpTime(0, sched.Op{Kind: sched.B, Slice: 1}) !=
		table.BAct[1]+table.W[1] {
		t.Error("fused B must equal BAct + W")
	}
}
