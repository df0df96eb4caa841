package opt

import (
	"math/rand"
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/verify"
)

// floorWorkload is the certifier floor's point: a MEPipe schedule the
// size of the Llama-13B × 32-GPU plan (P=8, S=32, N=8, 7 weight-gradient
// pieces: 18,432 ops) under a slot budget one family above its own
// peaks, and 64 of the annealer's proposals drawn from it.
func floorWorkload(tb testing.TB) (*sched.Schedule, *verify.Budget, []candidate) {
	tb.Helper()
	s, err := sched.MEPipe(8, 1, 32, 8, 0, 7, sched.Unit())
	if err != nil {
		tb.Fatal(err)
	}
	cert, err := verify.Certify(s, verify.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	slots := make([]int, len(cert.PeakFamilies))
	for k, p := range cert.PeakFamilies {
		slots[k] = p + 1
	}
	rng := rand.New(rand.NewSource(1))
	cands := make([]candidate, 64)
	for i := range cands {
		cands[i] = propose(rng, s, 8)
	}
	return s, verify.SlotBudget(slots), cands
}

// BenchmarkCertifyProposal is what certifying an annealer proposal cost
// before Delta: a full Certify with AssumeComplete, counterexample
// included on rejection.
func BenchmarkCertifyProposal(b *testing.B) {
	_, budget, cands := floorWorkload(b)
	opts := verify.Options{Budget: budget, AssumeComplete: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		verify.Certify(cands[i%len(cands)].sched, opts)
	}
}

// BenchmarkDeltaProposal checks the same proposals through a Delta bound
// to the schedule they were drawn from.
func BenchmarkDeltaProposal(b *testing.B) {
	s, budget, cands := floorWorkload(b)
	d := verify.NewDelta(budget)
	if err := d.Bind(s); err != nil {
		b.Fatal(err)
	}
	for _, c := range cands {
		d.Check(c.sched, c.stage)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cands[i%len(cands)]
		d.Check(c.sched, c.stage)
	}
}

// TestDeltaFloor is the incremental certifier's floor as a gate: per
// annealer proposal at the 13B point's size, Delta.Check must run at
// least 10× faster than the full Certify it replaces, with the same
// verdicts, and allocate nothing.
func TestDeltaFloor(t *testing.T) {
	s, budget, cands := floorWorkload(t)
	d := verify.NewDelta(budget)
	if err := d.Bind(s); err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i, c := range cands {
		_, want := verify.Certify(c.sched, verify.Options{Budget: budget, AssumeComplete: true})
		if got := d.Check(c.sched, c.stage); (got == nil) != (want == nil) {
			t.Fatalf("proposal %d (%s): Check says %v, Certify %v", i, c.operator, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	full := testing.Benchmark(BenchmarkCertifyProposal)
	inc := testing.Benchmark(BenchmarkDeltaProposal)
	if full.N == 0 || inc.N == 0 {
		t.Fatal("a benchmark failed to run")
	}
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	ratio := perOp(full) / perOp(inc)
	t.Logf("%d of %d proposals rejected; Certify %.0f ns, %d allocs; Delta.Check %.0f ns, %d allocs; %.1f×",
		rejected, len(cands), perOp(full), full.AllocsPerOp(), perOp(inc), inc.AllocsPerOp(), ratio)
	if a := inc.AllocsPerOp(); a != 0 {
		t.Errorf("Delta.Check allocates %d times per proposal, want 0", a)
	}
	if ratio < 10 {
		t.Errorf("Delta.Check is %.2f× the full Certify, want ≥ 10×", ratio)
	}
}
