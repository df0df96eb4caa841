package pipeline

// Resilient execution: the runtime survives injected (or real) stage
// faults instead of deadlocking the iteration. Three mechanisms compose:
//
//   - failure propagation — the first stage to fail closes the run's
//     failure latch; every other stage, including those blocked on
//     cross-stage tensors, unwinds with an error wrapping
//     errs.ErrStageFailed. No goroutine is ever left behind.
//   - bounded retry — cross-stage sends consult an injectable Transport;
//     transient errors (errs.ErrTransient) are retried with exponential
//     backoff plus deterministic per-stage jitter before escalating.
//   - restore-and-replay — with checkpointing enabled, each stage
//     snapshots its mutable state (activations, accumulated gradients,
//     deferred weight tasks with their pieces-run counts, loss) every
//     CheckpointEvery ops, logs tensors received since, and counts
//     frames sent. A crash restores the snapshot and re-executes the
//     lost ops: logged receives are served from the log,
//     already-delivered sends are suppressed, so peers never observe the
//     recovery and the iteration's loss and gradients are bit-identical
//     to an undisturbed run.
//
// Every op processes one sequence slice, so op boundaries are the slice
// boundaries §9's in-memory checkpointing acts at.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// StageHook observes (and may veto) op execution: BeforeOp runs on the
// stage's goroutine immediately before the index'th op. Returning an error
// fails the op's stage — the runtime then restores the stage's last
// checkpoint and replays, or, without one, fails the iteration with a
// *StageFailure. Fault injectors (internal/chaos) implement this.
type StageHook interface {
	BeforeOp(stage, index int, op sched.Op) error
}

// Transport intercepts cross-stage tensor deliveries: Send runs before
// each delivery attempt of producer op's output from stage `from` to
// stage `to`. Returning an error wrapping errs.ErrTransient makes the
// runtime retry with backoff; any other error fails the sending stage.
// Implementations may also sleep to model slow links.
type Transport interface {
	Send(from, to int, op sched.Op, attempt int) error
}

// RetryPolicy bounds the runtime's handling of transient send failures.
type RetryPolicy struct {
	// MaxAttempts is the total number of delivery attempts per frame.
	MaxAttempts int
	// Base and Cap bound the exponential backoff between attempts; the
	// actual wait is jittered to [0.5·d, 1.5·d) by a deterministic
	// per-stage source.
	Base, Cap time.Duration
}

// DefaultRetry is the runtime's retry policy when none is set.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, Base: 100 * time.Microsecond, Cap: 5 * time.Millisecond}
}

// StageFailure reports an unrecovered stage failure: the stage, the op it
// failed at, and the root cause. It wraps errs.ErrStageFailed (and the
// cause), so callers classify with errors.Is.
type StageFailure struct {
	Stage   int
	OpIndex int
	Op      sched.Op
	Err     error
}

func (f *StageFailure) Error() string {
	return fmt.Sprintf("pipeline: stage %d failed at op %d (%v): %v", f.Stage, f.OpIndex, f.Op, f.Err)
}

// Unwrap exposes both the sentinel and the root cause.
func (f *StageFailure) Unwrap() []error { return []error{errs.ErrStageFailed, f.Err} }

// WithStageHook attaches a hook consulted before every op (fault
// injection seam) and returns the receiver.
func (r *Runner) WithStageHook(h StageHook) *Runner {
	r.hook = h
	return r
}

// WithTransport attaches a cross-stage delivery interceptor (slow or
// flaky link seam) and returns the receiver.
func (r *Runner) WithTransport(t Transport) *Runner {
	r.transport = t
	return r
}

// WithRetryPolicy overrides the transient-failure retry policy.
func (r *Runner) WithRetryPolicy(p RetryPolicy) *Runner {
	if p.MaxAttempts > 0 {
		r.retry = p
	}
	return r
}

// WithCheckpointEvery enables restore-and-replay recovery: every stage
// snapshots its state before every n'th op (n ≤ 0 disables). Smaller n
// bounds the replayed work after a crash at the cost of more frequent
// snapshots — the Young–Daly trade internal/faults quantifies.
func (r *Runner) WithCheckpointEvery(n int) *Runner {
	r.ckptEvery = n
	return r
}

// resilience is the per-stage recovery state.
type resilience struct {
	every int            // checkpoint period in ops
	snap  *stageSnapshot // last checkpoint
	// recvLog holds cross-stage tensors received since the checkpoint;
	// replayIdx < len(recvLog) means receives are being replayed.
	recvLog   []*tensor.Matrix
	replayIdx int
	// sendSeq counts cross-stage sends since the checkpoint (or since a
	// restore); sendHW is the high-water mark — sends with sequence
	// below it were already delivered and are suppressed on replay.
	sendSeq, sendHW int
	// replayUntil marks the op index live execution had reached when
	// the last fault hit; ops below it re-execute with Cause "replay".
	replayUntil int
}

// stageSnapshot is one stage's checkpoint: the stage's tables, with its
// layer and head states deep-copied (payloads are immutable once produced
// and shared by reference).
type stageSnapshot struct {
	opIndex int
	loss    float64
	layers  [][]*nn.LayerState
	heads   []*nn.HeadState
	logits  []*tensor.Matrix
	tasks   [][]nn.WeightTask
	pieces  []int32
	stash   []*tensor.Matrix
	grads   []savedGrad
}

// savedGrad is one gradient buffer the stage owns (see Runner.owns) and
// its checkpoint copy. Stages own disjoint buffers, so restoring is safe
// while peers keep running.
type savedGrad struct{ live, saved *tensor.Matrix }

// owns is the one stage-ownership rule: stage k computes with parameter p,
// and so is the only stage accumulating its gradient, when it hosts p's
// global chunk — its layer's chunk, the first chunk for the embedding, the
// last for the head.
func (r *Runner) owns(k int, p nn.Param) bool {
	g := 0
	switch {
	case p.Owner == nn.OwnerHead:
		g = r.s.TotalChunks() - 1
	case p.Owner >= 0:
		g = r.layerChunk[p.Owner]
	}
	host, _ := r.s.Place.Host(g)
	return host == k
}

// stageParams filters the model's parameter table through owns.
func (r *Runner) stageParams(k int) []nn.Param {
	var out []nn.Param
	for _, p := range r.model.Params() {
		if r.owns(k, p) {
			out = append(out, p)
		}
	}
	return out
}

// cloneLayerStates deep-copies a stage's layer states via their checkpoint
// clones.
func cloneLayerStates(src [][]*nn.LayerState) [][]*nn.LayerState {
	out := make([][]*nn.LayerState, len(src))
	for li, states := range src {
		cp := make([]*nn.LayerState, len(states))
		for i, st := range states {
			cp[i] = st.Clone()
		}
		out[li] = cp
	}
	return out
}

func cloneHeadStates(src []*nn.HeadState) []*nn.HeadState {
	out := make([]*nn.HeadState, len(src))
	for i, st := range src {
		out[i] = st.Clone()
	}
	return out
}

// checkpoint snapshots st's state just before executing op index i.
func (r *Runner) checkpoint(st *stage, i int, next sched.Op) {
	var grads []savedGrad
	var bytes int64
	for _, p := range r.stageParams(st.k) {
		grads = append(grads, savedGrad{p.G, p.G.Clone()})
		bytes += int64(len(p.G.Data)) * 4
	}
	snap := &stageSnapshot{
		opIndex: i,
		loss:    st.loss,
		layers:  cloneLayerStates(st.layers),
		heads:   cloneHeadStates(st.heads),
		logits:  slices.Clone(st.logits),
		tasks:   slices.Clone(st.tasks),
		pieces:  slices.Clone(st.pieces),
		stash:   slices.Clone(st.stash),
		grads:   grads,
	}
	st.res.snap = snap
	st.res.recvLog = nil
	st.res.replayIdx = 0
	st.res.sendSeq = 0
	st.res.sendHW = 0
	if r.trace != nil {
		now := r.now()
		r.trace.Emit(obs.Event{
			Kind: obs.EvCkpt, Stage: st.k, From: st.k, Op: next,
			Start: now, End: now, Bytes: bytes,
		})
	}
}

// restore installs a fresh copy of the last checkpoint and rewinds the
// replay cursors; the snapshot itself stays intact for repeated faults.
func (r *Runner) restore(st *stage) {
	snap := st.res.snap
	st.loss = snap.loss
	st.layers = cloneLayerStates(snap.layers)
	st.heads = cloneHeadStates(snap.heads)
	copy(st.logits, snap.logits)
	copy(st.tasks, snap.tasks)
	copy(st.pieces, snap.pieces)
	copy(st.stash, snap.stash)
	for _, g := range snap.grads {
		copy(g.live.Data, g.saved.Data)
	}
	st.res.replayIdx = 0
	st.res.sendSeq = 0
}

// recoverStage handles a fault raised before op index i: with a
// checkpoint, restore it and rewind the stage's op cursor for replay;
// otherwise fail the stage (and with it, the iteration).
func (r *Runner) recoverStage(st *stage, i int, op sched.Op, cause error) int {
	if r.trace != nil {
		now := r.now()
		r.trace.Emit(obs.Event{
			Kind: obs.EvFault, Stage: st.k, From: st.k, Op: op,
			Start: now, End: now, Cause: "crash",
		})
	}
	if st.res == nil || st.res.snap == nil {
		panic(failPanic{idx: i, op: op, err: cause})
	}
	start := r.now()
	r.restore(st)
	if i > st.res.replayUntil {
		st.res.replayUntil = i
	}
	if r.trace != nil {
		from := r.s.Stages[st.k][st.res.snap.opIndex]
		r.trace.Emit(obs.Event{
			Kind: obs.EvRestore, Stage: st.k, From: st.k, Op: from,
			Start: start, End: r.now(), Cause: "crash",
		})
	}
	return st.res.snap.opIndex - 1 // caller's loop increment re-enters at the checkpoint
}

func isTransient(err error) bool { return errors.Is(err, errs.ErrTransient) }

// sendRetrying drives the transport hook for one cross-stage frame,
// retrying transient failures with capped exponential backoff and
// deterministic jitter. Exhausting the budget (or a non-transient error)
// fails the sending stage.
func (r *Runner) sendRetrying(st *stage, to int, producer sched.Op) {
	if r.transport == nil {
		return
	}
	for attempt := 0; ; attempt++ {
		err := r.transport.Send(st.k, to, producer, attempt)
		if err == nil {
			return
		}
		if !isTransient(err) || attempt+1 >= r.retry.MaxAttempts {
			panic(failPanic{idx: -1, op: producer,
				err: fmt.Errorf("sending %v to stage %d after %d attempts: %w", producer, to, attempt+1, err)})
		}
		if r.trace != nil {
			now := r.now()
			r.trace.Emit(obs.Event{
				Kind: obs.EvRetry, Stage: st.k, From: to, Op: producer,
				Start: now, End: now, Cause: err.Error(),
			})
		}
		r.backoffSleep(st, attempt)
	}
}

// backoffSleep waits Base·2^attempt (capped, jittered to [0.5d, 1.5d)),
// aborting promptly on cancellation or a peer failure.
func (r *Runner) backoffSleep(st *stage, attempt int) {
	d := r.retry.Base << uint(attempt)
	if d > r.retry.Cap || d <= 0 {
		d = r.retry.Cap
	}
	if st.rng != nil && d > 1 {
		d = d/2 + time.Duration(st.rng.Int63n(int64(d)))
	}
	fire, stop := after(d)
	defer stop()
	select {
	case <-fire:
	case <-r.ctx.Done():
		panic(cancelPanic{})
	case <-r.failed:
		panic(abortPanic{})
	}
}
