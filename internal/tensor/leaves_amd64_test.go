package tensor_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mepipe/internal/nn"
	"mepipe/internal/pipeline"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// TestPipelinedDecoderSameOnBothLeafSets runs one pipelined iteration of
// the end-to-end benchmark's train workload — the 4-layer decoder
// (hidden 64, 4 heads, FFN 256, vocabulary 256, 32 tokens) under
// MEPipe(P=4, V=1, S=4, N=4) with the weight gradients split into the
// decoder's GEMM pieces — once per leaf set, and requires the loss and
// every gradient of every SIMD set to be bit-identical to the Go loops'.
func TestPipelinedDecoderSameOnBothLeafSets(t *testing.T) {
	cfg := nn.Config{Hidden: 64, Heads: 4, FFN: 256, Vocab: 256, Layers: 4, SeqLen: 32}
	s, err := sched.MEPipe(4, 1, 4, 4, 0, nn.WeightGradGEMMs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := make([][]int, 4)
	for i := range batch {
		batch[i] = make([]int, cfg.SeqLen+1)
		for j := range batch[i] {
			batch[i][j] = rng.Intn(cfg.Vocab)
		}
	}
	type result struct {
		set   string
		loss  float64
		grads []nn.Param
	}
	var runs []result
	tensor.WithLeaves(t, func(t *testing.T) {
		m, err := nn.NewModel(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pipeline.New(m, s, batch)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := r.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, result{t.Name(), loss, m.Params()})
	})
	if len(runs) < 2 {
		t.Skip("one leaf set on this CPU: nothing to compare")
	}
	x := runs[len(runs)-1] // the Go loops
	for _, y := range runs[:len(runs)-1] {
		if math.Float64bits(x.loss) != math.Float64bits(y.loss) {
			t.Errorf("loss: %s %v, %s %v", x.set, x.loss, y.set, y.loss)
		}
		for i, p := range x.grads {
			q := y.grads[i].G
			for j, v := range p.G.Data {
				if math.Float32bits(v) != math.Float32bits(q.Data[j]) {
					t.Errorf("gradient %s[%d]: %s %v, %s %v", p.Name, j, x.set, v, y.set, q.Data[j])
					break
				}
			}
		}
	}
}
