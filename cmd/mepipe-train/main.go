// Command mepipe-train runs real slice-level pipelined training of a tiny
// decoder on synthetic data — one goroutine per pipeline stage executing a
// generated schedule with actual float32 tensors — and verifies every
// iteration's gradients against sequential execution (the artifact's E0
// functionality check).
//
// Example:
//
//	mepipe-train -pp 4 -slices 2 -micro 4 -steps 20 -verify
package main

import (
	"flag"
	"fmt"
	"os"

	"mepipe/internal/data"
	"mepipe/internal/nn"
	"mepipe/internal/pipeline"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

func main() {
	var (
		pp       = flag.Int("pp", 4, "pipeline stages")
		dp       = flag.Int("dp", 1, "data-parallel pipeline replicas (gradients averaged)")
		vp       = flag.Int("vp", 1, "virtual pipeline size")
		slices   = flag.Int("slices", 2, "sequence pipeline size (slices per sample)")
		micro    = flag.Int("micro", 4, "micro-batches per iteration")
		steps    = flag.Int("steps", 20, "training steps")
		hidden   = flag.Int("hidden", 16, "hidden size")
		layers   = flag.Int("layers", 8, "transformer layers")
		seqLen   = flag.Int("seq", 16, "sequence length")
		vocab    = flag.Int("vocab", 31, "vocabulary size")
		lr       = flag.Float64("lr", 0.05, "SGD learning rate")
		seed     = flag.Int64("seed", 42, "weights and data seed")
		verify   = flag.Bool("verify", false, "check gradients against sequential execution every step")
		useAdam  = flag.Bool("adam", false, "optimise with Adam instead of SGD")
		kworkers = flag.Int("kernel-workers", 0, "GEMM kernel workers, shared by every stage (0 = GOMAXPROCS); results are bitwise identical for any count")
	)
	flag.Parse()
	if *kworkers > 0 {
		tensor.Configure(tensor.KernelConfig{Workers: *kworkers})
	}

	cfg := nn.Config{Hidden: *hidden, Heads: 2, FFN: *hidden * 2, Vocab: *vocab, Layers: *layers, SeqLen: *seqLen}
	m, err := nn.NewModel(cfg, *seed)
	fatal(err)
	var ref *nn.Model
	if *verify {
		if *useAdam {
			fatal(fmt.Errorf("-verify compares against an SGD-stepped sequential reference; use it without -adam"))
		}
		ref, err = nn.NewModel(cfg, *seed)
		fatal(err)
	}
	stream, err := data.NewStream(cfg.Vocab, cfg.SeqLen, *seed+1)
	fatal(err)
	s, err := sched.MEPipe(*pp, *vp, *slices, *micro, 0, nn.WeightGradGEMMs, nil)
	fatal(err)
	fmt.Printf("schedule %s, model %d params, dp=%d\n", s, countParams(cfg), *dp)
	var opt *nn.Adam
	if *useAdam {
		opt = nn.NewAdam(float32(*lr))
	}
	if *dp > 1 {
		if *useAdam {
			fatal(fmt.Errorf("-dp composes with SGD only; use it without -adam"))
		}
		trainDP(m, ref, s, stream, *dp, *micro, *steps, float32(*lr), *verify)
		return
	}

	for step := 0; step < *steps; step++ {
		batch := stream.Batch(*micro)
		m.ZeroGrads()
		r, err := pipeline.New(m, s, batch)
		fatal(err)
		loss, err := r.Run()
		fatal(err)
		status := ""
		if *verify {
			ref.ZeroGrads()
			refLoss, err := ref.TrainSequential(batch, *slices)
			fatal(err)
			maxDiff := 0.0
			pg, rg := m.Grads(), ref.Grads()
			for name, g := range rg {
				if d := tensor.MaxAbsDiff(g, pg[name]); d > maxDiff {
					maxDiff = d
				}
			}
			status = fmt.Sprintf("  (sequential loss %.6f, max grad diff %.2g)", refLoss, maxDiff)
			if maxDiff > 1e-4 {
				fatal(fmt.Errorf("step %d: pipelined gradients diverge from sequential by %g", step, maxDiff))
			}
			ref.SGDStep(float32(*lr))
		}
		if opt != nil {
			opt.Step(m)
		} else {
			m.SGDStep(float32(*lr))
		}
		fmt.Printf("step %3d  loss %.6f%s\n", step, loss, status)
	}
	fmt.Println("done: pipelined training matches sequential execution")
}

// trainDP drives data-parallel replicas of the pipelined runtime.
func trainDP(m, ref *nn.Model, s *sched.Schedule, stream *data.Stream, dp, micro, steps int, lr float32, verify bool) {
	d, err := pipeline.NewDataParallel(m, dp)
	fatal(err)
	for step := 0; step < steps; step++ {
		batch := stream.Batch(dp * micro)
		loss, err := d.Run(s, batch)
		fatal(err)
		status := ""
		if verify {
			ref.ZeroGrads()
			refLoss, err := ref.TrainSequential(batch, s.S)
			fatal(err)
			maxDiff := 0.0
			pg, rg := d.Replicas()[0].Grads(), ref.Grads()
			for name, g := range rg {
				if diff := tensor.MaxAbsDiff(g, pg[name]); diff > maxDiff {
					maxDiff = diff
				}
			}
			status = fmt.Sprintf("  (sequential loss %.6f, max grad diff %.2g)", refLoss, maxDiff)
			if maxDiff > 1e-4 {
				fatal(fmt.Errorf("step %d: DP gradients diverge from sequential by %g", step, maxDiff))
			}
			ref.SGDStep(lr)
		}
		d.StepAll(lr)
		fmt.Printf("step %3d  loss %.6f%s\n", step, loss, status)
	}
	fmt.Println("done: data-parallel pipelined training matches sequential execution")
}

func countParams(cfg nn.Config) int {
	perLayer := 4*cfg.Hidden*cfg.Hidden + 3*cfg.Hidden*cfg.FFN + 2*cfg.Hidden
	return cfg.Layers*perLayer + 2*cfg.Vocab*cfg.Hidden + cfg.Hidden
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mepipe-train:", err)
		os.Exit(1)
	}
}
