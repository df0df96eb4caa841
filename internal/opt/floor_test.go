package opt

import (
	"math/rand"
	"testing"

	"mepipe/internal/sched"
	"mepipe/internal/sim"
	"mepipe/internal/verify"
)

// floorWorkload is the move path's floor point: a MEPipe schedule the
// size of the Llama-13B × 32-GPU plan (P=8, S=32, N=8, 7 weight-gradient
// pieces: 18,432 ops) under a slot budget one family above its own
// peaks, and 64 of the annealer's proposals drawn from it, no-op draws
// left out.
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
	var cands []candidate
	for len(cands) < 64 {
		var c candidate
		propose(rng, &c, s, 8)
		if len(c.win) > 0 {
			cands = append(cands, c)
		}
	}
	return s, verify.SlotBudget(slots), cands
}

// applied returns s with the candidate's move applied, as a schedule of
// its own: what the annealer built for every proposal before moves.
func applied(s *sched.Schedule, c *candidate) *sched.Schedule {
	m := cloneSchedule(s)
	copy(m.Stages[c.stage][c.lo:], c.win)
	return m
}

// moveState is the annealer's per-run state, bound to s as Optimize binds
// it: the session and one proposal slot's overlay.
type moveState struct {
	se *sim.Session
	ov *sim.Overlay
}

func bindMoves(tb testing.TB, s *sched.Schedule, costs sim.Costs, budget *verify.Budget) *moveState {
	tb.Helper()
	se := &sim.Session{}
	if _, err := bind(se, s, costs, budget); err != nil {
		tb.Fatal(err)
	}
	ov, err := se.NewOverlay()
	if err != nil {
		tb.Fatal(err)
	}
	return &moveState{se: se, ov: ov}
}

// fullProposal is what deciding a proposal cost before moves: a full
// Certify of the proposed schedule, counterexample included on
// rejection, and a session bound to it and evaluated when it certifies.
func fullProposal(cand *sched.Schedule, costs sim.Costs, opts verify.Options, se *sim.Session) (bool, float64) {
	if _, err := verify.Certify(cand, opts); err != nil {
		return false, 0
	}
	if err := se.Bind(sim.Options{Sched: cand, Costs: costs}); err != nil {
		return false, 0
	}
	r, err := se.Eval(cand)
	if err != nil {
		return false, 0
	}
	return true, r.IterTime
}

// BenchmarkFullProposal decides the floor's proposals as fullProposal
// does.
func BenchmarkFullProposal(b *testing.B) {
	s, budget, cands := floorWorkload(b)
	scheds := make([]*sched.Schedule, len(cands))
	for i := range cands {
		scheds[i] = applied(s, &cands[i])
	}
	opts := verify.Options{Budget: budget}
	var se sim.Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullProposal(scheds[i%len(scheds)], sim.Unit(), opts, &se)
	}
}

// BenchmarkMoveProposal decides them as the annealer does: one overlay
// Load and Eval, whose stage walk is the budget verdict.
func BenchmarkMoveProposal(b *testing.B) {
	s, budget, cands := floorWorkload(b)
	st := bindMoves(b, s, sim.Unit(), budget)
	for i := range cands {
		evaluate(&cands[i], 0, st.ov)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate(&cands[i%len(cands)], 0, st.ov)
	}
}

// acceptedWorkload is floorWorkload's feasible proposals, each paired with
// its inverse: the move that restores the base's window.
func acceptedWorkload(tb testing.TB) (*sched.Schedule, *verify.Budget, []candidate, []candidate) {
	tb.Helper()
	s, budget, cands := floorWorkload(tb)
	st := bindMoves(tb, s, sim.Unit(), budget)
	var acc, inv []candidate
	for _, c := range cands {
		if evaluate(&c, 0, st.ov); c.feasible {
			acc = append(acc, c)
			back := c
			back.win = append([]sched.Op(nil), s.Stages[c.stage][c.lo:c.lo+len(c.win)]...)
			inv = append(inv, back)
		}
	}
	if len(acc) == 0 {
		tb.Fatal("no proposal is feasible")
	}
	return s, budget, acc, inv
}

// BenchmarkBindAccept is what moving the session to an accepted move cost
// before commits: the session bound to the moved schedule, as the
// annealer binds it, and evaluated.
func BenchmarkBindAccept(b *testing.B) {
	s, budget, acc, _ := acceptedWorkload(b)
	scheds := []*sched.Schedule{s}
	for i := range acc {
		scheds = append(scheds, applied(s, &acc[i]))
	}
	var se sim.Session
	for _, m := range scheds {
		if _, err := bind(&se, m, sim.Unit(), budget); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bind(&se, scheds[i%len(scheds)], sim.Unit(), budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitAccept moves them by commit, one accepted move and its
// inverse in turn, each evaluated on the overlay and committed from it.
func BenchmarkCommitAccept(b *testing.B) {
	s, budget, acc, inv := acceptedWorkload(b)
	cur := cloneSchedule(s)
	st := bindMoves(b, cur, sim.Unit(), budget)
	step := func(i int) {
		c := &acc[i/2%len(acc)]
		if i%2 == 1 {
			c = &inv[i/2%len(inv)]
		}
		if evaluate(c, 0, st.ov); !c.feasible {
			b.Fatal("an accepted move is infeasible")
		}
		if err := commit(c, cur, st.ov); err != nil {
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

// TestMoveFloor is the move path's floor as a gate, at the 13B point's
// size. Per annealer proposal, the move verdict and evaluation must run at
// least 10× faster than the full Certify and fresh session evaluation it
// replaces, with the same verdicts and times, and allocate nothing. Per
// accepted move, its evaluation and commit must run at least 10× faster
// than the full session bind and evaluation they replace, and allocate
// nothing.
func TestMoveFloor(t *testing.T) {
	s, budget, cands := floorWorkload(t)
	st := bindMoves(t, s, sim.Unit(), budget)
	opts := verify.Options{Budget: budget}
	var se sim.Session
	rejected := 0
	for i := range cands {
		c := &cands[i]
		evaluate(c, 0, st.ov)
		ok, time := fullProposal(applied(s, c), sim.Unit(), opts, &se)
		if c.feasible != ok || c.time != time {
			t.Fatalf("proposal %d (%s): move says %v %v, full path %v %v", i, c.operator, c.feasible, c.time, ok, time)
		}
		if !ok {
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
	floor("move proposal", "Certify+Eval", testing.Benchmark(BenchmarkFullProposal), testing.Benchmark(BenchmarkMoveProposal))
	floor("commit", "Bind", testing.Benchmark(BenchmarkBindAccept), testing.Benchmark(BenchmarkCommitAccept))
}
