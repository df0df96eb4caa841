package pipeline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

func cfg() nn.Config {
	return nn.Config{Hidden: 8, Heads: 2, FFN: 16, Vocab: 13, Layers: 8, SeqLen: 8}
}

func batch(rng *rand.Rand, c nn.Config, n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		s := make([]int, c.SeqLen+1)
		for j := range s {
			s[j] = rng.Intn(c.Vocab)
		}
		out[i] = s
	}
	return out
}

// runBoth executes the schedule in the pipeline runtime and sequentially on
// an identically seeded model, returning both models and losses.
func runBoth(t *testing.T, s *sched.Schedule, seed int64) (pipeLoss, seqLoss float64, pipeM, seqM *nn.Model) {
	t.Helper()
	c := cfg()
	rng := rand.New(rand.NewSource(seed))
	b := batch(rng, c, s.N)

	pipeM, err := nn.NewModel(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(pipeM, s, b)
	if err != nil {
		t.Fatal(err)
	}
	pipeLoss, err = r.Run()
	if err != nil {
		t.Fatal(err)
	}

	seqM, err = nn.NewModel(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	seqLoss, err = seqM.TrainSequential(b, s.S)
	if err != nil {
		t.Fatal(err)
	}
	return pipeLoss, seqLoss, pipeM, seqM
}

func assertEquivalent(t *testing.T, s *sched.Schedule, seed int64) {
	t.Helper()
	pipeLoss, seqLoss, pipeM, seqM := runBoth(t, s, seed)
	if math.Abs(pipeLoss-seqLoss) > 1e-5 {
		t.Errorf("%s: pipeline loss %.8f != sequential %.8f", s, pipeLoss, seqLoss)
	}
	pg, sg := pipeM.Grads(), seqM.Grads()
	for name, ref := range sg {
		if d := tensor.MaxAbsDiff(ref, pg[name]); d > 1e-4 {
			t.Errorf("%s: grad %s differs by %g", s, name, d)
		}
	}
}

// TestEverySchedulerMatchesSequential is the artifact-E0-style functionality
// check: pipelined execution under every scheduler produces the gradients
// of sequential execution.
func TestEverySchedulerMatchesSequential(t *testing.T) {
	type build struct {
		name string
		s    func() (*sched.Schedule, error)
	}
	builds := []build{
		{"gpipe", func() (*sched.Schedule, error) { return sched.GPipe(4, 3, nil) }},
		{"dapple", func() (*sched.Schedule, error) { return sched.DAPPLE(4, 5, nil) }},
		{"vpp", func() (*sched.Schedule, error) { return sched.VPP(4, 2, 4, nil) }},
		{"hanayo", func() (*sched.Schedule, error) { return sched.Hanayo(4, 4, nil) }},
		{"terapipe", func() (*sched.Schedule, error) { return sched.TeraPipe(4, 2, 3, nil) }},
		{"zb1p", func() (*sched.Schedule, error) { return sched.ZB1P(4, 4, nil) }},
		{"zbv", func() (*sched.Schedule, error) { return sched.ZBV(4, 3, nil) }},
		{"svpp", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 3, Reschedule: true})
		}},
		{"svpp-v2", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 2, S: 2, N: 3, Reschedule: true})
		}},
		{"mepipe", func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 2, 3, 0, 5, nil) }},
		{"mepipe-v2", func() (*sched.Schedule, error) { return sched.MEPipe(4, 2, 2, 3, 0, 3, nil) }},
		{"mepipe-minmem", func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 4, 3, 4, 7, nil) }},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			s, err := b.s()
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, s, 31)
		})
	}
}

// TestSVPPPropertyEquivalence: random SVPP shapes and knobs, always
// gradient-equivalent to sequential execution.
func TestSVPPPropertyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		p := rng.Intn(4) + 1
		v := rng.Intn(2) + 1
		for p*v > 8 {
			v = 1
		}
		sOpt := []int{1, 2, 4, 8}[rng.Intn(4)]
		n := rng.Intn(4) + 1
		f := rng.Intn(v*sOpt*p+1) + 1
		split := rng.Intn(2) == 0
		pieces := 0
		if split {
			pieces = rng.Intn(6) + 1
		}
		sch, err := sched.SVPP(sched.SVPPOptions{
			P: p, V: v, S: sOpt, N: n, F: f,
			Reschedule: rng.Intn(2) == 0,
			Split:      split, FineGrainedW: pieces,
		})
		if err != nil {
			t.Fatalf("trial %d (p=%d v=%d s=%d n=%d f=%d): %v", trial, p, v, sOpt, n, f, err)
		}
		assertEquivalent(t, sch, int64(trial))
	}
}

// TestPipelinedTrainingConverges drives several full optimizer steps through
// the MEPipe schedule and checks the loss decreases — real slice-level
// pipelined training end to end.
func TestPipelinedTrainingConverges(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(5))
	b := batch(rng, c, 3)
	m, err := nn.NewModel(c, 17)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.MEPipe(4, 1, 2, 3, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for step := 0; step < 10; step++ {
		m.ZeroGrads()
		r, err := New(m, s, b)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		m.SGDStep(0.05)
	}
	if last >= first {
		t.Errorf("pipelined training did not converge: %.4f -> %.4f", first, last)
	}
}

func TestNewValidation(t *testing.T) {
	c := cfg()
	m, _ := nn.NewModel(c, 1)
	s, _ := sched.DAPPLE(4, 3, nil)
	rng := rand.New(rand.NewSource(2))
	if _, err := New(m, s, batch(rng, c, 2)); err == nil {
		t.Error("micro-batch count mismatch accepted")
	}
	short := batch(rng, c, 3)
	short[1] = short[1][:3]
	if _, err := New(m, s, short); err == nil {
		t.Error("short sample accepted")
	}
	deep, _ := sched.VPP(4, 3, 4, nil) // 12 chunks > 8 layers
	if _, err := New(m, deep, batch(rng, c, 4)); err == nil {
		t.Error("more chunks than layers accepted")
	}
	bad, _ := sched.TeraPipe(2, 3, 2, nil) // 8 tokens not divisible by 3
	if _, err := New(m, bad, batch(rng, c, 2)); err == nil {
		t.Error("indivisible slices accepted")
	}
}

// TestNewRejectsOutOfVocabulary: a token outside the vocabulary — an
// embedded one at or past Vocab or below 0, or a target at or past Vocab —
// is bad input, rejected by New with ErrIncompatible before any stage
// starts, not a stage fault. A negative last target is one CrossEntropy
// ignores, and runs.
func TestNewRejectsOutOfVocabulary(t *testing.T) {
	c := cfg()
	s, err := sched.DAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		pos, tok int
	}{{0, c.Vocab}, {3, c.Vocab + 131}, {0, -1}, {c.SeqLen - 1, -2}, {c.SeqLen, c.Vocab}} {
		m, _ := nn.NewModel(c, 1)
		b := batch(rand.New(rand.NewSource(3)), c, 2)
		b[1][bad.pos] = bad.tok
		_, err := New(m, s, b)
		if !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("token %d at %d: New returned %v, want ErrIncompatible", bad.tok, bad.pos, err)
		}
	}
	m, _ := nn.NewModel(c, 1)
	b := batch(rand.New(rand.NewSource(3)), c, 2)
	b[0][c.SeqLen] = -1
	r, err := New(m, s, b)
	if err != nil {
		t.Fatalf("ignored last target: %v", err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatalf("ignored last target: %v", err)
	}
}

// TestSingleStageDegenerate: p=1 with multiple chunks exercises the local
// stash hand-off path.
func TestSingleStageDegenerate(t *testing.T) {
	s, err := sched.Generate(sched.GenOptions{
		Name: "p1v2", P: 1, V: 2, S: 2, N: 2,
		Place: sched.RoundRobin{P: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, s, 77)
}

// TestPipelineDeterministic: two identical runs produce bitwise-identical
// losses and gradients despite goroutine scheduling (each stage's work is
// fully ordered by its schedule, so float op order is fixed).
func TestPipelineDeterministic(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(404))
	s, err := sched.MEPipe(4, 1, 2, 3, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := batch(rng, c, s.N)
	run := func() (float64, *nn.Model) {
		m, err := nn.NewModel(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(m, s, b)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return loss, m
	}
	l1, m1 := run()
	l2, m2 := run()
	if l1 != l2 {
		t.Fatalf("losses differ across identical runs: %v vs %v", l1, l2)
	}
	g1, g2 := m1.Grads(), m2.Grads()
	for name, g := range g1 {
		if d := tensor.MaxAbsDiff(g, g2[name]); d != 0 {
			t.Errorf("grad %s nondeterministic (diff %g)", name, d)
		}
	}
}

// TestPipelinedRecompute: activation recomputation composes with the full
// MEPipe schedule in the goroutine runtime.
func TestPipelinedRecompute(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 3, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	rng := rand.New(rand.NewSource(55))
	b := batch(rng, c, s.N)
	lean, _ := nn.NewModel(c, 21)
	lean.LeanActivations = true
	r, err := New(lean, s, b)
	if err != nil {
		t.Fatal(err)
	}
	leanLoss, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := nn.NewModel(c, 21)
	refLoss, err := ref.TrainSequential(b, s.S)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(leanLoss-refLoss) > 1e-6 {
		t.Errorf("recomputing pipeline loss %v != sequential %v", leanLoss, refLoss)
	}
	rg, lg := ref.Grads(), lean.Grads()
	for name, g := range rg {
		if d := tensor.MaxAbsDiff(g, lg[name]); d > 1e-4 {
			t.Errorf("grad %s differs by %g", name, d)
		}
	}
}
