package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mepipe"
	"mepipe/internal/nn"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// Each train op runs one real pipelined iteration of this decoder under
// the MEPipe schedule (P=4 stages, V=1, S=4 slices, N=4 micro-batches,
// weight gradients split into the decoder's GEMM pieces): 128 tokens. Four
// layers, one per stage, keep an op near 60 ms, so a run's time cap fits
// 250 timed ops.
var trainCfg = nn.Config{Hidden: 64, Heads: 4, FFN: 256, Vocab: 256, Layers: 4, SeqLen: 32}

const (
	trainP, trainV, trainS, trainN = 4, 1, 4, 4
	// trainBatches is the number of seeded batches the ops cycle through.
	trainBatches = 8
	// trainWeightSeed fixes the weights, so only the batches vary with the
	// benchmark's seed.
	trainWeightSeed = 1
)

type train struct {
	m       *nn.Model
	s       *sched.Schedule
	batches [][][]int
	// loss is the first loss each batch gave: every repeat must reproduce
	// it bit for bit (weights stay fixed; gradients are zeroed per op).
	loss map[int]float64

	// Sums over traced replays of the runtime's own trace snapshot.
	snaps                                                  int
	forward, backward, weight, stallDep, stallComm, bubble float64
	commBytes, commMsgs, gemmFLOPs                         float64
}

func newTrain(seed int64) (instance, error) {
	s, err := sched.MEPipe(trainP, trainV, trainS, trainN, 0, nn.WeightGradGEMMs, nil)
	if err != nil {
		return nil, err
	}
	m, err := nn.NewModel(trainCfg, trainWeightSeed)
	if err != nil {
		return nil, err
	}
	t := &train{m: m, s: s, loss: map[int]float64{}}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < trainBatches; b++ {
		batch := make([][]int, trainN)
		for i := range batch {
			batch[i] = make([]int, trainCfg.SeqLen+1)
			for j := range batch[i] {
				batch[i][j] = rng.Intn(trainCfg.Vocab)
			}
		}
		t.batches = append(t.batches, batch)
	}
	if err := t.matchSequential(); err != nil {
		return nil, err
	}
	return t, nil
}

// matchSequential checks one pipelined iteration against sequential
// training of an identical model.
func (t *train) matchSequential() error {
	seq, err := nn.NewModel(trainCfg, trainWeightSeed)
	if err != nil {
		return err
	}
	seqLoss, err := seq.TrainSequential(t.batches[0], t.s.S)
	if err != nil {
		return err
	}
	t.m.ZeroGrads()
	loss, err := mepipe.TrainPipelined(context.Background(), t.m, t.s, t.batches[0])
	if err != nil {
		return err
	}
	return compareSequential(loss, seqLoss, t.m.Grads(), seq.Grads())
}

// compareSequential applies the runtime's own equivalence tolerances: loss
// within 1e-5, every gradient within 1e-4 max-abs.
func compareSequential(loss, seqLoss float64, grads, seqGrads map[string]*tensor.Matrix) error {
	if math.Abs(loss-seqLoss) > 1e-5 {
		return fmt.Errorf("train: pipelined loss %v, sequential %v", loss, seqLoss)
	}
	for name, g := range seqGrads {
		if d := tensor.MaxAbsDiff(g, grads[name]); d > 1e-4 {
			return fmt.Errorf("train: gradient %s differs from sequential by %g", name, d)
		}
	}
	return nil
}

func (t *train) run(i int, opts ...mepipe.Option) (time.Duration, error) {
	b := i % trainBatches
	t.m.ZeroGrads()
	start := time.Now()
	loss, err := mepipe.TrainPipelined(context.Background(), t.m, t.s, t.batches[b], opts...)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, t.check(b, loss)
}

func (t *train) op(i int) (time.Duration, error) { return t.run(i) }

// check: each repeat of a batch gives a bitwise-equal loss.
func (t *train) check(b int, loss float64) error {
	if prev, ok := t.loss[b]; ok && math.Float64bits(prev) != math.Float64bits(loss) {
		return fmt.Errorf("train: batch %d gave loss %v, earlier %v", b, loss, prev)
	}
	t.loss[b] = loss
	return nil
}

// replay runs the iteration with the runtime's own tracing on: the traced
// replay records its op, stall and transfer events and folds their
// snapshot into the pipeline metrics.
func (t *train) replay(i int, tr *tracer) error {
	return tr.request(func() error {
		if tr == nil {
			_, err := t.run(i)
			return err
		}
		rec := obs.NewRecorder()
		tr.begin("pipeline.run")
		_, err := t.run(i, mepipe.WithTrace(rec))
		tr.end()
		if err != nil {
			return err
		}
		snap := rec.Trace().Snapshot()
		t.snaps++
		for _, st := range snap.Stages {
			t.forward += st.Forward
			t.backward += st.Backward
			t.weight += st.Weight
			t.commMsgs += float64(st.CommIn)
		}
		t.stallDep += snap.StallTime["dep"]
		t.stallComm += snap.StallTime["comm"]
		t.bubble += snap.Bubble
		t.commBytes += float64(snap.CommBytes)
		t.gemmFLOPs += float64(snap.GemmFLOPs)
		return nil
	})
}

// layers reports the runtime's snapshot per iteration, and estimates the
// GEMM share from the GEMM work and the kernels' rate at the decoder's
// weight shapes.
func (t *train) layers(_ *tracer, tt *traceTimes) (map[string]float64, error) {
	n := float64(t.snaps)
	gflop := t.gemmFLOPs / n / 1e9
	rate := gemmRate()
	cpuS := medianDur(tt.op) / 1e9 * float64(min(runtime.GOMAXPROCS(0), trainP))
	return map[string]float64{
		"pipeline.forward_ms":    t.forward / n * 1e3,
		"pipeline.backward_ms":   t.backward / n * 1e3,
		"pipeline.weight_ms":     t.weight / n * 1e3,
		"pipeline.stall_dep_ms":  t.stallDep / n * 1e3,
		"pipeline.stall_comm_ms": t.stallComm / n * 1e3,
		"pipeline.bubble":        t.bubble / n,
		"pipeline.comm_kb":       t.commBytes / n / 1024,
		"pipeline.comm_msgs":     t.commMsgs / n,
		"tensor.gemm_gflop":      gflop,
		"tensor.gemm_gflops":     rate,
		"tensor.gemm_share_est":  gflop / rate / cpuS,
	}, nil
}

// gemmRate times the three GEMM forms (forward, activation gradient,
// weight gradient) at every linear layer's shape for one slice of tokens,
// and returns their throughput in GFLOP/s.
func gemmRate() float64 {
	rows := trainCfg.SeqLen / trainS
	h, f, v := trainCfg.Hidden, trainCfg.FFN, trainCfg.Vocab
	shapes := [][2]int{{h, h}, {h, h}, {h, h}, {h, h}, {h, f}, {h, f}, {f, h}, {h, v}}
	type gemm struct{ x, y, w, dx, dy, dw *tensor.Matrix }
	var gs []gemm
	var flop float64
	for _, sh := range shapes {
		in, out := sh[0], sh[1]
		g := gemm{tensor.New(rows, in), tensor.New(rows, out), tensor.New(in, out), tensor.New(rows, in), tensor.New(rows, out), tensor.New(in, out)}
		g.x.RandInit(rand.New(rand.NewSource(1)), 1)
		g.w.RandInit(rand.New(rand.NewSource(2)), 1)
		g.dy.RandInit(rand.New(rand.NewSource(3)), 1)
		gs = append(gs, g)
		flop += 3 * 2 * float64(rows*in*out)
	}
	const reps = 2000
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, g := range gs {
			tensor.MatMul(g.y, g.x, g.w)
			tensor.MatMulBT(g.dx, g.dy, g.w)
			tensor.MatMulAT(g.dw, g.x, g.dy)
		}
	}
	return flop * reps / time.Since(start).Seconds() / 1e9
}
