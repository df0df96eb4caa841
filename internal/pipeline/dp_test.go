package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"mepipe/internal/errs"
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

// TestStageWorkersMatchSequential runs each stage as an isolated worker
// with its OWN model copy (as separate processes would), connected by
// net.Pipe links — and verifies every worker's owned-layer gradients match
// sequential training. This is the multi-process deployment shape.
func TestStageWorkersMatchSequential(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(808))
	s, err := sched.MEPipe(4, 1, 2, 3, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := batch(rng, c, s.N)

	// Independent model replicas, one per "process", same seed.
	workers := make([]*StageWorker, s.P)
	models := make([]*nn.Model, s.P)
	for k := 0; k < s.P; k++ {
		models[k], err = nn.NewModel(c, 77)
		if err != nil {
			t.Fatal(err)
		}
		workers[k], err = NewStageWorker(models[k], s, b, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Full mesh of pipes between peers.
	conns := make([]map[int]net.Conn, s.P)
	for k := range conns {
		conns[k] = map[int]net.Conn{}
	}
	for a := 0; a < s.P; a++ {
		for _, peer := range workers[a].Peers() {
			if peer < a {
				continue
			}
			ca, cb := net.Pipe()
			conns[a][peer] = ca
			conns[peer][a] = cb
		}
	}
	losses := make([]float64, s.P)
	errs := make([]error, s.P)
	var wg sync.WaitGroup
	for k := 0; k < s.P; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			losses[k], errs[k] = workers[k].Run(conns[k])
		}(k)
	}
	wg.Wait()
	for k := range conns {
		for _, cn := range conns[k] {
			cn.Close()
		}
	}
	total := 0.0
	for k, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", k, err)
		}
		total += losses[k]
	}

	ref, _ := nn.NewModel(c, 77)
	refLoss, err := ref.TrainSequential(b, s.S)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-refLoss) > 1e-6 {
		t.Errorf("workers' loss %v != sequential %v", total, refLoss)
	}
	// Every parameter — each layer's linears and norms, the embedding, the
	// head — has exactly one owning worker, whose gradient matches; the
	// other workers never touch it.
	for i, p := range ref.Params() {
		owners := 0
		for k, w := range workers {
			got := models[k].Params()[i]
			if !w.Owns(got) {
				if d := tensor.MaxAbsDiff(got.G, tensor.New(got.G.Rows, got.G.Cols)); d != 0 {
					t.Errorf("worker %d does not own %s but accumulated a gradient", k, p.Name)
				}
				continue
			}
			owners++
			if d := tensor.MaxAbsDiff(p.G, got.G); d > 1e-4 {
				t.Errorf("worker %d %s: grad differs by %g", k, p.Name, d)
			}
		}
		if owners != 1 {
			t.Errorf("%s has %d owning workers, want 1", p.Name, owners)
		}
	}
}

// TestStageLoopMultiStep: multi-step distributed training (each stage its
// own model replica, stepping only its own layers) tracks single-process
// training exactly — including weight evolution.
func TestStageLoopMultiStep(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(909))
	s, err := sched.MEPipe(4, 1, 2, 3, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 4
	const lr = 0.05
	batches := make([][][]int, steps)
	for i := range batches {
		batches[i] = batch(rng, c, s.N)
	}

	// Reference: single-process sequential training.
	ref, _ := nn.NewModel(c, 31)
	refLosses := make([]float64, steps)
	for i := range batches {
		ref.ZeroGrads()
		loss, err := ref.TrainSequential(batches[i], s.S)
		if err != nil {
			t.Fatal(err)
		}
		refLosses[i] = loss
		ref.SGDStep(lr)
	}

	// Distributed: one loop per stage, independent model replicas.
	loops := make([]*StageLoop, s.P)
	models := make([]*nn.Model, s.P)
	for k := 0; k < s.P; k++ {
		models[k], _ = nn.NewModel(c, 31)
		loops[k], err = NewStageLoop(models[k], s, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	conns := make([]map[int]net.Conn, s.P)
	for k := range conns {
		conns[k] = map[int]net.Conn{}
	}
	for a := 0; a < s.P; a++ {
		for b := a + 1; b < s.P; b++ {
			ca, cb := net.Pipe()
			conns[a][b] = ca
			conns[b][a] = cb
		}
	}
	lossesPer := make([][]float64, s.P)
	errs := make([]error, s.P)
	var wg sync.WaitGroup
	for k := 0; k < s.P; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lossesPer[k], errs[k] = loops[k].RunSteps(conns[k], batches, lr)
		}(k)
	}
	wg.Wait()
	for k := range conns {
		for _, cn := range conns[k] {
			cn.Close()
		}
	}
	for k, err := range errs {
		if err != nil {
			t.Fatalf("stage %d: %v", k, err)
		}
	}
	for i := 0; i < steps; i++ {
		total := 0.0
		for k := 0; k < s.P; k++ {
			total += lossesPer[k][i]
		}
		if math.Abs(total-refLosses[i]) > 1e-5 {
			t.Errorf("step %d: distributed loss %.8f != sequential %.8f", i, total, refLosses[i])
		}
	}
	// Every parameter a stage owns — norms, embedding and head included —
	// must match the reference after all steps.
	for k := 0; k < s.P; k++ {
		w, _ := NewStageWorker(models[k], s, batches[0], k)
		for i, p := range models[k].Params() {
			if !w.Owns(p) {
				continue
			}
			if d := tensor.MaxAbsDiff(ref.Params()[i].W, p.W); d > 1e-5 {
				t.Errorf("stage %d %s weights diverged by %g", k, p.Name, d)
			}
		}
	}
}

func TestStageWorkerValidation(t *testing.T) {
	c := cfg()
	m, _ := nn.NewModel(c, 1)
	s, _ := sched.DAPPLE(4, 2, nil)
	b := batch(rand.New(rand.NewSource(1)), c, 2)
	if _, err := NewStageWorker(m, s, b, 4); err == nil {
		t.Error("out-of-range stage accepted")
	}
	if _, err := NewStageLoop(m, s, -1); err == nil {
		t.Error("negative stage accepted")
	}
	w, err := NewStageWorker(m, s, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 1 of a 4-deep DAPPLE pipeline talks to stages 0 and 2.
	peers := w.Peers()
	if len(peers) != 2 {
		t.Fatalf("stage 1 peers = %v, want 2 of them", peers)
	}
	if _, err := w.Run(map[int]net.Conn{}); err == nil {
		t.Error("missing connections accepted")
	}
	if got := w.Stage(); got != 1 {
		t.Errorf("Stage() = %d", got)
	}
	// 8 layers over 4 stages: stage 1 owns layers 2 and 3, nine tensors
	// each, and neither the embedding nor the head.
	var owned []string
	for _, p := range m.Params() {
		if w.Owns(p) {
			owned = append(owned, p.Name)
		}
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

// TestStageLoopWeightsPinned: two multi-process-shaped training steps
// leave every stage's replica bitwise at the checkpoint recorded before
// the per-stage SGD step walked the parameter table.
func TestStageLoopWeightsPinned(t *testing.T) {
	c := cfg()
	rng := rand.New(rand.NewSource(909))
	s, _ := sched.MEPipe(4, 1, 2, 3, 0, 3, nil)
	batches := [][][]int{batch(rng, c, s.N), batch(rng, c, s.N)}
	conns := make([]map[int]net.Conn, s.P)
	for k := range conns {
		conns[k] = map[int]net.Conn{}
	}
	for a := 0; a < s.P; a++ {
		for b := a + 1; b < s.P; b++ {
			ca, cb := net.Pipe()
			conns[a][b] = ca
			conns[b][a] = cb
		}
	}
	models := make([]*nn.Model, s.P)
	errs := make([]error, s.P)
	var wg sync.WaitGroup
	for k := 0; k < s.P; k++ {
		models[k], _ = nn.NewModel(c, 31)
		l, err := NewStageLoop(models[k], s, k)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = l.RunSteps(conns[k], batches, 0.05)
		}(k)
	}
	wg.Wait()
	for k := range conns {
		for _, cn := range conns[k] {
			cn.Close()
		}
	}
	want := []string{
		"a28ca0ac51c04f95e6106b4d4c2902164698b0f670626a245fa32cee3558042f",
		"2604d98f4762d3423e26db7c9bf8e1a8eaa62246b48d60d21b6a1826aa0ba5f6",
		"b15a5b0c474a45feafca155aea26dee61156271f60144abf33263a20a88a8da5",
		"7858b533f29ad669ca8dc3d0919c7b25cd2e9cb7171b25e73c1bc1fe1dbb1a3f",
	}
	for k, m := range models {
		if errs[k] != nil {
			t.Fatalf("stage %d: %v", k, errs[k])
		}
		var ckpt bytes.Buffer
		if err := m.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(ckpt.Bytes())); got != want[k] {
			t.Errorf("stage %d checkpoint sha256 %s, want %s", k, got, want[k])
		}
	}
}

// TestStageWorkerFailureIsStageFailure: a worker runs its stage through the
// same guarded body as RunContext, so an unrecoverable op failure surfaces
// as a *StageFailure naming the stage and op.
func TestStageWorkerFailureIsStageFailure(t *testing.T) {
	c := cfg()
	m, _ := nn.NewModel(c, 1)
	s, _ := sched.DAPPLE(4, 2, nil)
	w, err := NewStageWorker(m, s, batch(rand.New(rand.NewSource(1)), c, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.r.WithStageHook(&crashOnce{stage: 1, at: 0})
	conns := map[int]net.Conn{}
	for _, peer := range w.Peers() {
		ours, theirs := net.Pipe()
		defer ours.Close()
		defer theirs.Close()
		conns[peer] = ours
	}
	_, err = w.Run(conns)
	var sf *StageFailure
	if !errors.As(err, &sf) || sf.Stage != 1 || sf.OpIndex != 0 {
		t.Fatalf("got %v, want a *StageFailure at stage 1 op 0", err)
	}
	if !errors.Is(err, errs.ErrStageFailed) {
		t.Errorf("%v does not wrap ErrStageFailed", err)
	}
}
