package nn

import (
	"errors"
	"math/rand"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/tensor"
)

// TestTrainerMatchesSequential: a long-lived Trainer stepping repeatedly
// must be bitwise identical to a throwaway trainer per step — buffer
// recycling changes nothing about the math.
func TestTrainerMatchesSequential(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(101))
	batch := randBatch(rng, cfg, 2)

	reused, _ := NewModel(cfg, 17)
	fresh, _ := NewModel(cfg, 17)
	tr := NewTrainer(reused)
	defer tr.Close()
	for step := 0; step < 4; step++ {
		reused.ZeroGrads()
		lossR, err := tr.Step(batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		fresh.ZeroGrads()
		lossF, err := fresh.TrainSequential(batch, 2)
		if err != nil {
			t.Fatal(err)
		}
		if lossR != lossF {
			t.Fatalf("step %d: reused trainer loss %v != fresh %v", step, lossR, lossF)
		}
		rg, fg := reused.Grads(), fresh.Grads()
		for name, g := range fg {
			if d := tensor.MaxAbsDiff(g, rg[name]); d != 0 {
				t.Fatalf("step %d: grad %s differs by %g", step, name, d)
			}
		}
		reused.SGDStep(0.05)
		fresh.SGDStep(0.05)
	}
}

// TestTrainerLeanMatches: recompute mode through a reused trainer stays
// bitwise identical too (the lean replay recycles its rebuilt buffers).
func TestTrainerLeanMatches(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(102))
	batch := randBatch(rng, cfg, 1)
	full, _ := NewModel(cfg, 23)
	lossFull, err := full.TrainSequential(batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	lean, _ := NewModel(cfg, 23)
	lean.LeanActivations = true
	tr := NewTrainer(lean)
	defer tr.Close()
	lossLean, err := tr.Step(batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lossFull != lossLean {
		t.Fatalf("lean trainer loss %v != full %v", lossLean, lossFull)
	}
	fg, lg := full.Grads(), lean.Grads()
	for name, g := range fg {
		if d := tensor.MaxAbsDiff(g, lg[name]); d != 0 {
			t.Fatalf("lean trainer grad %s differs by %g", name, d)
		}
	}
}

// TestTrainStepZeroAlloc asserts the tentpole memory claim: after warm-up,
// one training step allocates nothing — every buffer comes from the arena.
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := tinyCfg()
	rng := rand.New(rand.NewSource(103))
	batch := randBatch(rng, cfg, 2)
	m, _ := NewModel(cfg, 29)
	tr := NewTrainer(m)
	defer tr.Close()
	step := func() {
		m.ZeroGrads()
		if _, err := tr.Step(batch, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the arena and state maps
		step()
	}
	if allocs := testing.AllocsPerRun(10, step); allocs > 0 {
		t.Errorf("train step allocates %v objects per run, want 0", allocs)
	}
}

// BenchmarkTrainStep measures one full training step (forward, loss,
// backward, weight gradients) through the zero-allocation hot path.
func BenchmarkTrainStep(b *testing.B) {
	cfg := Config{Hidden: 64, Heads: 4, FFN: 128, Vocab: 64, Layers: 2, SeqLen: 64}
	rng := rand.New(rand.NewSource(104))
	batch := randBatch(rng, cfg, 1)
	m, err := NewModel(cfg, 31)
	if err != nil {
		b.Fatal(err)
	}
	tr := NewTrainer(m)
	defer tr.Close()
	if _, err := tr.Step(batch, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		if _, err := tr.Step(batch, 2); err != nil {
			b.Fatal(err)
		}
	}
	st := tr.Stats()
	b.ReportMetric(float64(st.FLOPs)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
}

// TestStepRejectsOutOfVocabulary: a token outside the vocabulary — an
// embedded one at or past Vocab or below 0, or a target at or past Vocab —
// makes Step return ErrIncompatible, before it touches the model, where it
// used to panic. A negative last target is one CrossEntropy ignores, and
// trains.
func TestStepRejectsOutOfVocabulary(t *testing.T) {
	cfg := tinyCfg()
	for _, bad := range []struct {
		pos, tok int
	}{{0, cfg.Vocab}, {4, cfg.Vocab + 133}, {0, -1}, {cfg.SeqLen - 1, -2}, {cfg.SeqLen, cfg.Vocab}} {
		m, _ := NewModel(cfg, 1)
		batch := randBatch(rand.New(rand.NewSource(5)), cfg, 2)
		batch[1][bad.pos] = bad.tok
		if _, err := m.TrainSequential(batch, 2); !errors.Is(err, errs.ErrIncompatible) {
			t.Errorf("token %d at %d: Step returned %v, want ErrIncompatible", bad.tok, bad.pos, err)
		}
		for name, g := range m.Grads() {
			for _, v := range g.Data {
				if v != 0 {
					t.Fatalf("token %d at %d: gradient %s touched by a rejected step", bad.tok, bad.pos, name)
				}
			}
		}
	}
	m, _ := NewModel(cfg, 1)
	batch := randBatch(rand.New(rand.NewSource(5)), cfg, 2)
	batch[0][cfg.SeqLen] = -1
	if _, err := m.TrainSequential(batch, 2); err != nil {
		t.Fatalf("ignored last target: %v", err)
	}
}
