package nn

import (
	"fmt"

	"mepipe/internal/tensor"
)

// Trainer owns the reusable state of sequential (single-device) training:
// a scratch arena, per-layer states with preallocated KV caches, head
// bookkeeping, and the deferred-task list. After a warm-up step, Step
// allocates zero bytes per microbatch — the arena satisfies every
// checkout, layer states rewind in place, and weight-task buffers cycle
// back through Release.
type Trainer struct {
	m      *Model
	sc     *tensor.Scratch
	states []*LayerState
	head   *HeadState
	logits []*tensor.Matrix
	tasks  []WeightTask
}

// NewTrainer builds a trainer for m. Close it to return the arena to the
// shared pool.
func NewTrainer(m *Model) *Trainer {
	t := &Trainer{m: m, sc: tensor.GrabScratch(), head: NewHeadState()}
	for i := 0; i < m.Cfg.Layers; i++ {
		t.states = append(t.states, NewLayerState(m.Cfg))
	}
	return t
}

// Close releases the trainer's arena. The trainer must not be used after.
func (t *Trainer) Close() {
	tensor.ReleaseScratch(t.sc)
	t.sc = nil
}

// Stats reports the trainer's arena counters (allocation traffic, GEMM
// FLOPs) accumulated so far.
func (t *Trainer) Stats() tensor.ScratchStats { return t.sc.Stats() }

// Step runs one full iteration over batch with the given sequence-pipeline
// slice count and returns the mean loss. Identical op order to the
// pipelined runtime's sequential reference semantics: forward slice by
// slice, per-slice losses, backward slices in reverse with weight
// gradients inline.
//
// Step validates and grows first-touch state, then hands off to the
// annotated hot loop: everything error formatting or allocating stays on
// this side of the split so mepipe-lint's hotpath-alloc proof covers the
// steady-state path.
func (t *Trainer) Step(batch [][]int, slices int) (float64, error) {
	cfg := t.m.Cfg
	if cfg.SeqLen%slices != 0 {
		return 0, fmt.Errorf("nn: seq len %d not divisible by %d slices", cfg.SeqLen, slices)
	}
	for i, sample := range batch {
		if err := cfg.CheckSample(sample); err != nil {
			return 0, fmt.Errorf("nn: sample %d: %w", i, err)
		}
	}
	if cap(t.logits) < slices {
		t.logits = make([]*tensor.Matrix, slices)
	}
	return t.step(batch, slices), nil
}

// step is the per-microbatch hot loop: after warm-up it allocates zero
// bytes, a property mepipe-lint proves statically for every function it
// transitively calls (audited //mepipe:coldalloc escapes excepted) and
// TestTrainStepZeroAlloc re-checks dynamically at one config.
//
//mepipe:hotpath
func (t *Trainer) step(batch [][]int, slices int) float64 {
	cfg := t.m.Cfg
	tok := cfg.SeqLen / slices
	logits := t.logits[:slices]
	var total float64
	for _, sample := range batch {
		for _, st := range t.states {
			st.Reset()
		}
		t.head.Reset()
		// Forward, slice by slice.
		for s := 0; s < slices; s++ {
			start := s * tok
			x := t.m.Embed.Forward(t.sc, sample[start:start+tok])
			for li, l := range t.m.Layers {
				if t.m.LeanActivations {
					x = l.ForwardSliceLean(t.sc, t.states[li], x, start)
				} else {
					x = l.ForwardSlice(t.sc, t.states[li], x, start)
				}
			}
			logits[s] = t.m.Head.Forward(t.sc, x, t.head, start)
		}
		// Loss per slice (targets are the next tokens). The reported
		// loss is the mean over samples and slices; the gradient is
		// scaled to match it exactly, so finite-difference checks and
		// pipelined replays agree with the sequential reference.
		norm := float64(slices * len(batch))
		for s := 0; s < slices; s++ {
			start := s * tok
			dl := t.sc.GetRaw(tok, cfg.Vocab)
			total += tensor.CrossEntropy(dl, logits[s], sample[start+1:start+tok+1]) / norm
			dl.Scale(float32(1 / norm))
			t.sc.Put(logits[s])
			logits[s] = dl // the slot now carries dLogits
		}
		// Backward, slices in reverse; weight gradients inline.
		tasks := t.tasks[:0]
		for s := slices - 1; s >= 0; s-- {
			start := s * tok
			dx, tasks2 := t.m.Head.Backward(t.sc, logits[s], t.head, start, tasks)
			tasks = tasks2
			logits[s] = nil
			for li := len(t.m.Layers) - 1; li >= 0; li-- {
				dx, tasks = t.m.Layers[li].BackwardSlice(t.sc, t.states[li], start, dx, tasks)
			}
			t.m.Embed.Backward(sample[start:start+tok], dx)
			t.sc.Put(dx)
			for _, task := range tasks {
				task.RunCounted(t.sc)
			}
			Release(t.sc, tasks)
			tasks = tasks[:0]
		}
		t.tasks = tasks
	}
	return total
}
