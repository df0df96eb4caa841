package pipeline

import (
	"fmt"
	"sync"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/sched"
)

// DataParallel composes data parallelism with the pipelined runtime: each
// replica runs the same schedule over its shard of the micro-batches on its
// own weight copy, and the gradients are all-reduced (averaged) afterwards
// — the ZeRO-1-style DP dimension of the paper's strategies, realised with
// goroutine pipelines instead of GPU ranks.
type DataParallel struct {
	replicas []*nn.Model
}

// NewDataParallel clones the reference model dp times. The clones share the
// seed-derived weights of ref (exact copies), so training stays
// deterministic.
func NewDataParallel(ref *nn.Model, dp int) (*DataParallel, error) {
	if dp < 1 {
		return nil, fmt.Errorf("pipeline: dp %d must be >= 1: %w", dp, errs.ErrIncompatible)
	}
	d := &DataParallel{}
	for i := 0; i < dp; i++ {
		clone, err := nn.NewModel(ref.Cfg, 0)
		if err != nil {
			return nil, err
		}
		for j, p := range clone.Params() {
			p.W.CopyFrom(ref.Params()[j].W)
		}
		d.replicas = append(d.replicas, clone)
	}
	return d, nil
}

// Replicas exposes the per-replica models (after Run every replica holds
// the averaged gradients).
func (d *DataParallel) Replicas() []*nn.Model { return d.replicas }

// StepAll applies the same SGD step to every replica; because the gradients
// were averaged, the replicas stay weight-identical.
func (d *DataParallel) StepAll(lr float32) {
	for _, m := range d.replicas {
		m.SGDStep(lr)
	}
}

// Run executes one iteration: the batch is split evenly across replicas
// (len(batch) must be dp × schedule n), each replica runs the schedule
// concurrently, and gradients are averaged into every replica. Returns the
// mean loss across replicas.
func (d *DataParallel) Run(s *sched.Schedule, batch [][]int) (float64, error) {
	dp := len(d.replicas)
	if len(batch)%dp != 0 {
		return 0, fmt.Errorf("pipeline: %d samples do not shard across dp=%d: %w", len(batch), dp, errs.ErrIncompatible)
	}
	per := len(batch) / dp
	losses := make([]float64, dp)
	runErrs := make([]error, dp)
	var wg sync.WaitGroup
	for i := range d.replicas {
		i := i
		spawn(&wg, func() {
			d.replicas[i].ZeroGrads()
			r, err := New(d.replicas[i], s, batch[i*per:(i+1)*per])
			if err != nil {
				runErrs[i] = err
				return
			}
			losses[i], runErrs[i] = r.Run()
		})
	}
	wg.Wait()
	for _, err := range runErrs {
		if err != nil {
			return 0, err
		}
	}
	d.allReduceGrads()
	total := 0.0
	for _, l := range losses {
		total += l
	}
	return total / float64(dp), nil
}

// allReduceGrads averages every gradient across replicas and writes the
// result back to all of them (a ring all-reduce's outcome, computed
// centrally).
func (d *DataParallel) allReduceGrads() {
	if len(d.replicas) == 1 {
		return
	}
	rest := d.replicas[1:]
	inv := float32(1.0 / float64(len(d.replicas)))
	for j, p := range d.replicas[0].Params() {
		for _, m := range rest {
			p.G.Add(m.Params()[j].G)
		}
		p.G.Scale(inv)
		for _, m := range rest {
			m.Params()[j].G.CopyFrom(p.G)
		}
	}
}
