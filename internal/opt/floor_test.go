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
// before Delta: a full Certify, counterexample included on rejection.
func BenchmarkCertifyProposal(b *testing.B) {
	_, budget, cands := floorWorkload(b)
	opts := verify.Options{Budget: budget}
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

// acceptedWorkload is floorWorkload's proposals that certify: the moves
// an annealer could accept, each with the Delta bound to their base.
func acceptedWorkload(tb testing.TB) (*sched.Schedule, *verify.Delta, []candidate) {
	tb.Helper()
	s, budget, cands := floorWorkload(tb)
	d := verify.NewDelta(budget)
	if err := d.Bind(s); err != nil {
		tb.Fatal(err)
	}
	var acc []candidate
	for _, c := range cands {
		if d.Check(c.sched, c.stage) == nil {
			acc = append(acc, c)
		}
	}
	if len(acc) == 0 {
		tb.Fatal("no proposal certifies")
	}
	return s, d, acc
}

// benchAccept binds d to each accepted proposal in turn and back to its
// base, one accept per iteration: the annealer's bind on accept.
func benchAccept(b *testing.B, bind func(d *verify.Delta, s *sched.Schedule, stage int) error) {
	s, d, acc := acceptedWorkload(b)
	step := func(i int) {
		c := &acc[i/2%len(acc)]
		to := c.sched
		if i%2 == 1 {
			to = s
		}
		if err := bind(d, to, c.stage); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*len(acc); i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkBindAccept is what moving the binding to an accepted move cost
// before Rebind: a full Bind.
func BenchmarkBindAccept(b *testing.B) {
	benchAccept(b, func(d *verify.Delta, s *sched.Schedule, _ int) error { return d.Bind(s) })
}

// BenchmarkRebindAccept moves it by Rebind over the move's window.
func BenchmarkRebindAccept(b *testing.B) {
	benchAccept(b, func(d *verify.Delta, s *sched.Schedule, stage int) error { return d.Rebind(s, stage) })
}

// TestDeltaFloor is the incremental certifier's floor as a gate, at the
// 13B point's size. Per annealer proposal, Delta.Check must run at least
// 10× faster than the full Certify it replaces, with the same verdicts,
// and allocate nothing. Per accepted move, Rebind must run at least 10×
// faster than the full Bind it replaces, and allocate nothing.
func TestDeltaFloor(t *testing.T) {
	s, budget, cands := floorWorkload(t)
	d := verify.NewDelta(budget)
	if err := d.Bind(s); err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i, c := range cands {
		_, want := verify.Certify(c.sched, verify.Options{Budget: budget})
		if got := d.Check(c.sched, c.stage); (got == nil) != (want == nil) {
			t.Fatalf("proposal %d (%s): Check says %v, Certify %v", i, c.operator, got, want)
		}
		if want != nil {
			rejected++
		}
	}
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	floor := func(what, base string, full, inc testing.BenchmarkResult) {
		t.Helper()
		if full.N == 0 || inc.N == 0 {
			t.Fatalf("a %s benchmark failed to run", what)
		}
		ratio := perOp(full) / perOp(inc)
		t.Logf("%s %.0f ns, %d allocs; %s %.0f ns, %d allocs; %.1f×",
			base, perOp(full), full.AllocsPerOp(), what, perOp(inc), inc.AllocsPerOp(), ratio)
		if a := inc.AllocsPerOp(); a != 0 {
			t.Errorf("%s allocates %d times per op, want 0", what, a)
		}
		if ratio < 10 {
			t.Errorf("%s is %.2f× the full %s, want ≥ 10×", what, ratio, base)
		}
	}
	t.Logf("%d of %d proposals rejected", rejected, len(cands))
	floor("Delta.Check", "Certify", testing.Benchmark(BenchmarkCertifyProposal), testing.Benchmark(BenchmarkDeltaProposal))
	floor("Delta.Rebind", "Bind", testing.Benchmark(BenchmarkBindAccept), testing.Benchmark(BenchmarkRebindAccept))
}
