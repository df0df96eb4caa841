package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mepipe/internal/nn"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// TestDataParallelMatchesSequential: DP replicas of the goroutine pipeline,
// gradients averaged, must equal sequential training over the whole batch
// (whose gradient is already the per-shard mean of means, since shards are
// equal-sized).
func TestDataParallelMatchesSequential(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(123))
	const dp, nPerReplica = 2, 3
	b := batch(rng, c, dp*nPerReplica)

	ref, err := nn.NewModel(c, 55)
	if err != nil {
		t.Fatal(err)
	}
	refLoss, err := ref.TrainSequential(b, 2)
	if err != nil {
		t.Fatal(err)
	}

	proto, err := nn.NewModel(c, 55)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDataParallel(proto, dp)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.MEPipe(4, 1, 2, nPerReplica, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := d.Run(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-refLoss) > 1e-5 {
		t.Errorf("DP loss %.8f != sequential %.8f", loss, refLoss)
	}
	rg := ref.Grads()
	for i, rep := range d.Replicas() {
		for name, g := range rep.Grads() {
			if diff := tensor.MaxAbsDiff(rg[name], g); diff > 1e-4 {
				t.Errorf("replica %d grad %s differs by %g", i, name, diff)
			}
		}
	}
}

// TestDataParallelStaysInSync: after StepAll the replicas remain
// weight-identical across several iterations.
func TestDataParallelStaysInSync(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(321))
	proto, _ := nn.NewModel(c, 9)
	d, err := NewDataParallel(proto, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.DAPPLE(4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		if _, err := d.Run(s, batch(rng, c, 4)); err != nil {
			t.Fatal(err)
		}
		d.StepAll(0.05)
	}
	a, b2 := d.Replicas()[0], d.Replicas()[1]
	if diff := tensor.MaxAbsDiff(a.Embed.Table, b2.Embed.Table); diff != 0 {
		t.Errorf("replicas drifted: embedding diff %g", diff)
	}
	if diff := tensor.MaxAbsDiff(a.Layers[3].Wq.W, b2.Layers[3].Wq.W); diff != 0 {
		t.Errorf("replicas drifted: Wq diff %g", diff)
	}
}

func TestDataParallelValidation(t *testing.T) {
	proto, _ := nn.NewModel(cfg(), 1)
	if _, err := NewDataParallel(proto, 0); err == nil {
		t.Error("dp=0 accepted")
	}
	d, _ := NewDataParallel(proto, 2)
	s, _ := sched.DAPPLE(4, 2, nil)
	rng := rand.New(rand.NewSource(1))
	if _, err := d.Run(s, batch(rng, cfg(), 3)); err == nil {
		t.Error("unshardable batch accepted")
	}
}

// TestAdamConvergesFasterThanSGDFlat: Adam must reduce the loss on the tiny
// task (and, as a sanity check on the moment bookkeeping, behave
// deterministically across identical runs).
func TestAdamTraining(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(77))
	b := batch(rng, c, 3)
	run := func() []float64 {
		m, _ := nn.NewModel(c, 4)
		opt := nn.NewAdam(0.01)
		var losses []float64
		for step := 0; step < 10; step++ {
			m.ZeroGrads()
			loss, err := m.TrainSequential(b, 2)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
			opt.Step(m)
		}
		return losses
	}
	l1, l2 := run(), run()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("Adam nondeterministic at step %d: %v vs %v", i, l1[i], l2[i])
		}
	}
	if l1[len(l1)-1] >= l1[0] {
		t.Errorf("Adam did not reduce loss: %.4f -> %.4f", l1[0], l1[len(l1)-1])
	}
}

// TestOwnershipPartitionsParams: Runner.owns, the one stage-ownership
// rule, gives every parameter — each layer's linears and norms, the
// embedding, the head — exactly one owning stage, and hands each stage the
// tensors of the chunks it hosts.
func TestOwnershipPartitionsParams(t *testing.T) {
	c := cfg()
	m, _ := nn.NewModel(c, 1)
	for _, mk := range []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return sched.DAPPLE(4, 2, nil) },
		func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 2, 4, 0, 4, nil) },
		func() (*sched.Schedule, error) { return sched.MEPipe(2, 2, 2, 4, 0, 4, nil) },
	} {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(m, s, batch(rand.New(rand.NewSource(1)), c, s.N))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Params() {
			owners := 0
			for k := 0; k < s.P; k++ {
				if r.owns(k, p) {
					owners++
				}
			}
			if owners != 1 {
				t.Errorf("%s: %s has %d owning stages, want 1", s, p.Name, owners)
			}
		}
	}
	// 8 layers over a 4-deep DAPPLE pipeline: stage 1 owns layers 2 and
	// 3, nine tensors each, and neither the embedding nor the head.
	s, _ := sched.DAPPLE(4, 2, nil)
	r, err := New(m, s, batch(rand.New(rand.NewSource(1)), c, 2))
	if err != nil {
		t.Fatal(err)
	}
	var owned []string
	for _, p := range r.stageParams(1) {
		owned = append(owned, p.Name)
	}
	if len(owned) != 18 || owned[0] != "l2.Wq" || owned[17] != "l3.mlpNorm" {
		t.Errorf("stage 1 owns %v, want the 18 tensors of layers 2 and 3", owned)
	}
}

// gradHash is the SHA-256 of every gradient in parameter-table order.
func gradHash(m *nn.Model) string {
	h := sha256.New()
	for _, p := range m.Params() {
		binary.Write(h, binary.LittleEndian, p.G.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDataParallelGradsPinned: the all-reduced gradients (norms included)
// and the loss are bitwise the values recorded before the weight copy and
// all-reduce walked the parameter table.
func TestDataParallelGradsPinned(t *testing.T) {
	c := cfg()
	b := batch(rand.New(rand.NewSource(123)), c, 6)
	proto, _ := nn.NewModel(c, 55)
	d, err := NewDataParallel(proto, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sched.MEPipe(4, 1, 2, 3, 0, 3, nil)
	loss, err := d.Run(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", loss); got != "0x1.55cade635a211p+01" {
		t.Errorf("loss %s", got)
	}
	const want = "162a5032ef4875f90cd2fa3d820f56ddf37f30776469fdd7b0a97a476811b0a5"
	for i, m := range d.Replicas() {
		if got := gradHash(m); got != want {
			t.Errorf("replica %d gradient sha256 %s, want %s", i, got, want)
		}
	}
}

// TestOwnedWeightsPinned: two pipelined SGD steps, then each stage's
// owned parameters copied into a fresh replica, leave every replica
// bitwise at the checkpoint recorded when each stage trained its own
// replica and stepped only the parameters it owns.
func TestOwnedWeightsPinned(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(909))
	s, _ := sched.MEPipe(4, 1, 2, 3, 0, 3, nil)
	batches := [][][]int{batch(rng, c, s.N), batch(rng, c, s.N)}
	m, _ := nn.NewModel(c, 31)
	var r *Runner
	for _, b := range batches {
		m.ZeroGrads()
		var err error
		if r, err = New(m, s, b); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		m.SGDStep(0.05)
	}
	want := []string{
		"a28ca0ac51c04f95e6106b4d4c2902164698b0f670626a245fa32cee3558042f",
		"2604d98f4762d3423e26db7c9bf8e1a8eaa62246b48d60d21b6a1826aa0ba5f6",
		"b15a5b0c474a45feafca155aea26dee61156271f60144abf33263a20a88a8da5",
		"7858b533f29ad669ca8dc3d0919c7b25cd2e9cb7171b25e73c1bc1fe1dbb1a3f",
	}
	for k := 0; k < s.P; k++ {
		replica, _ := nn.NewModel(c, 31)
		for i, p := range m.Params() {
			if r.owns(k, p) {
				replica.Params()[i].W.CopyFrom(p.W)
			}
		}
		var ckpt bytes.Buffer
		if err := replica.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(ckpt.Bytes())); got != want[k] {
			t.Errorf("stage %d checkpoint sha256 %s, want %s", k, got, want[k])
		}
	}
}
