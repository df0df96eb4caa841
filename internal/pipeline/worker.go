package pipeline

import (
	"bufio"
	"fmt"
	"net"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// StageWorker executes exactly one pipeline stage the way a separate
// process (or host) would: it holds its own model replica — every worker
// builds the model from the same seed, so weights agree without any
// transfer — but computes only its stage's layers, exchanging activation
// and gradient tensors with peer stages over net.Conn links. Gradients for
// the parameters the worker owns accumulate into its local model, exactly
// like a GPU rank.
type StageWorker struct {
	r     *Runner
	stage int
}

// NewStageWorker validates and prepares one stage's worker.
func NewStageWorker(m *nn.Model, s *sched.Schedule, batch [][]int, stage int) (*StageWorker, error) {
	if stage < 0 || stage >= s.P {
		return nil, fmt.Errorf("pipeline: stage %d out of range [0,%d): %w", stage, s.P, errs.ErrIncompatible)
	}
	r, err := New(m, s, batch)
	if err != nil {
		return nil, err
	}
	return &StageWorker{r: r, stage: stage}, nil
}

// Stage returns the stage index this worker executes.
func (w *StageWorker) Stage() int { return w.stage }

// Owns reports whether this stage computes with parameter p, and so is
// the only worker producing its gradient (the runtime's one ownership
// rule, Runner.owns).
func (w *StageWorker) Owns(p nn.Param) bool { return w.r.owns(w.stage, p) }

// Peers returns the stages this worker must be connected to.
func (w *StageWorker) Peers() []int {
	set := map[int]bool{}
	for pair := range w.r.stagePairs() {
		if pair[0] == w.stage {
			set[pair[1]] = true
		}
		if pair[1] == w.stage {
			set[pair[0]] = true
		}
	}
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// Run executes the stage over the given peer connections (keyed by peer
// stage). It returns this stage's share of the loss (non-zero only on the
// stage hosting the final chunk). The connections are not closed.
func (w *StageWorker) Run(conns map[int]net.Conn) (float64, error) {
	for _, peer := range w.Peers() {
		if conns[peer] == nil {
			return 0, fmt.Errorf("pipeline: stage %d missing connection to peer %d: %w", w.stage, peer, errs.ErrIncompatible)
		}
	}
	for _, conn := range conns {
		// The demuxes drain until the caller closes the conns; they hold
		// no state this iteration needs, so nothing waits on them.
		demux(nil, conn, func(_ int, e edgeKey) chan *tensor.Matrix {
			if e.stage != w.stage {
				return nil // not addressed to this stage
			}
			return w.r.recv[e]
		})
	}
	return w.runWired(conns)
}

// runWired executes the stage with its outgoing frames written to conns,
// through the same latch-guarded body as RunContext's stage goroutines.
func (w *StageWorker) runWired(conns map[int]net.Conn) (float64, error) {
	wires := make([]wire, w.r.s.P)
	wires[w.stage].out = make(map[int]*bufio.Writer, len(conns))
	for peer, conn := range conns {
		wires[w.stage].out[peer] = bufio.NewWriter(conn)
	}
	w.r.wires = wires
	defer func() { w.r.wires = nil }()
	st := w.r.newStage(w.stage)
	w.r.runStageGuarded(st)
	w.r.releaseStage(st)
	return st.loss, st.err
}

// StageLoop drives multi-step distributed training of one stage: a fresh
// Runner per step over shared connections, frames routed by their iteration
// tag, and an SGD step over the stage's own parameters between iterations.
// Because every worker steps only the parameters it computes with, using
// gradients it produced locally, the fleet's weights evolve exactly like single-process
// training — no parameter synchronisation needed.
type StageLoop struct {
	model *nn.Model
	s     *sched.Schedule
	stage int
}

// NewStageLoop prepares a multi-step worker for one stage.
func NewStageLoop(m *nn.Model, s *sched.Schedule, stage int) (*StageLoop, error) {
	if stage < 0 || stage >= s.P {
		return nil, fmt.Errorf("pipeline: stage %d out of range [0,%d): %w", stage, s.P, errs.ErrIncompatible)
	}
	return &StageLoop{model: m, s: s, stage: stage}, nil
}

// RunSteps executes len(batches) iterations over the given peer
// connections, applying lr-scaled SGD to the parameters the stage owns
// after each. It returns the per-step losses of this stage (non-zero only
// on the stage hosting the final chunk).
func (l *StageLoop) RunSteps(conns map[int]net.Conn, batches [][][]int, lr float32) ([]float64, error) {
	// Pre-build one runner (and worker) per step so the demultiplexer can
	// route any iteration's frames the moment they arrive — a fast
	// upstream stage may already be sending step i+1 while this stage
	// still drains step i.
	workers := make([]*StageWorker, len(batches))
	for i, b := range batches {
		w, err := NewStageWorker(l.model, l.s, b, l.stage)
		if err != nil {
			return nil, err
		}
		w.r.iter = i
		workers[i] = w
	}
	// One demux per conn, shared across steps.
	for _, conn := range conns {
		demux(nil, conn, func(iter int, e edgeKey) chan *tensor.Matrix {
			if iter < 0 || iter >= len(workers) || e.stage != l.stage {
				return nil
			}
			return workers[iter].r.recv[e]
		})
	}
	losses := make([]float64, len(batches))
	for i, w := range workers {
		l.model.ZeroGrads()
		loss, err := w.runWired(conns)
		if err != nil {
			return nil, fmt.Errorf("pipeline: step %d: %w", i, err)
		}
		losses[i] = loss
		nn.SGD(w.r.stageParams(l.stage), lr)
	}
	return losses, nil
}
