// Package pipeline executes generated schedules on a real (tiny) decoder:
// one goroutine per pipeline stage, channels as inter-stage links, actual
// float32 tensors as payloads. It is the correctness half of the
// reproduction — a schedule is right iff pipelined execution produces the
// same loss and gradients as sequential execution, for every scheduler
// (GPipe, DAPPLE, VPP, TeraPipe, ZB, SVPP/MEPipe) including fine-grained
// weight-gradient pieces executed out of order in bubbles.
//
// Each stage owns the layers of its model chunks and runs on the
// schedule's dense tables (sched.DepTable): a dependency edge carries a
// tensor exactly when it crosses a global-chunk boundary, and each
// producer feeds at most one such consumer. Cross-stage tensors travel
// over one 1-buffered channel per edge, so the blocking receive IS the
// dependency wait. The channel fabric is the runtime's only transport:
// every stage runs in one process, and data-parallel replicas
// (DataParallel) are further runners in that process. Certification
// (deadlock freedom) guarantees the goroutines always drain.
package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
	"mepipe/internal/verify"
)

// Runner executes one iteration of a schedule over a model and batch.
type Runner struct {
	model *nn.Model
	s     *sched.Schedule
	batch [][]int

	chunkLayers [][]int // global chunk -> layer indices
	layerChunk  []int   // layer index -> global chunk
	sliceTokens int

	// dt is the schedule's dependency table, over the op ids of dt.Ix.
	// out[id] is the op that op id hands its output tensor to, or -1;
	// in[id] is op id's receive channel when that tensor comes from
	// another stage, nil otherwise.
	dt  *sched.DepTable
	out []int32
	in  []chan *tensor.Matrix

	// ctx cancels blocking receives mid-iteration (RunContext); it is
	// context.Background for plain Run.
	ctx context.Context
	// trace, when non-nil, receives wall-clock op and comm events as the
	// stages execute (see WithTrace).
	trace obs.Sink
	// clock is the runtime's wall-clock source (see clock.go); t0 is the
	// clock origin of the run's trace timestamps.
	clock Clock
	t0    time.Time
	// kernels, when non-nil, is applied to the shared GEMM pool before the
	// stages start (see WithKernels).
	kernels *tensor.KernelConfig

	// Resilience (see resilience.go). hook and transport are the fault
	// injection seams; ckptEvery enables restore-and-replay recovery;
	// retry bounds transient-send backoff. failed is the run's failure
	// latch: closed (once) when a stage fails unrecoverably so every
	// blocked peer unwinds instead of deadlocking.
	hook      StageHook
	transport Transport
	ckptEvery int
	retry     RetryPolicy
	failed    chan struct{}
	failOnce  sync.Once
	failErr   error
}

// New certifies the schedule, validates shapes, and wires the channel
// fabric. Uncertified schedules — a dependency cycle, an incomplete op
// family, a cross-stage dependency with no sender — are rejected up
// front with an error wrapping errs.ErrUncertified rather than
// discovered as a deadlocked goroutine fleet at run time.
func New(m *nn.Model, s *sched.Schedule, batch [][]int) (*Runner, error) {
	if _, err := verify.Certify(s, verify.Options{}); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if len(batch) != s.N {
		return nil, fmt.Errorf("pipeline: %d micro-batches for schedule with n=%d: %w", len(batch), s.N, errs.ErrIncompatible)
	}
	if m.Cfg.SeqLen%s.S != 0 {
		return nil, fmt.Errorf("pipeline: seq len %d not divisible by %d slices: %w", m.Cfg.SeqLen, s.S, errs.ErrIncompatible)
	}
	for i, sample := range batch {
		if err := m.Cfg.CheckSample(sample); err != nil {
			return nil, fmt.Errorf("pipeline: sample %d: %w", i, err)
		}
	}
	chunks := s.TotalChunks()
	if m.Cfg.Layers < chunks {
		return nil, fmt.Errorf("pipeline: %d layers cannot fill %d chunks: %w", m.Cfg.Layers, chunks, errs.ErrIncompatible)
	}
	r := &Runner{
		model: m, s: s, batch: batch,
		sliceTokens: m.Cfg.SeqLen / s.S,
		dt:          s.DepTable(),
		ctx:         context.Background(),
		clock:       realClock,
		retry:       DefaultRetry(),
		failed:      make(chan struct{}),
	}
	// Spread layers over global chunks as evenly as possible.
	r.chunkLayers = make([][]int, chunks)
	base, rem := m.Cfg.Layers/chunks, m.Cfg.Layers%chunks
	next := 0
	for c := 0; c < chunks; c++ {
		n := base
		if c < rem {
			n++
		}
		for i := 0; i < n; i++ {
			r.chunkLayers[c] = append(r.chunkLayers[c], next)
			r.layerChunk = append(r.layerChunk, c)
			next++
		}
	}
	// Tensor edges: the dependencies that cross a global-chunk boundary
	// (sched.Deps rules F.1 and B.1), one channel per cross-stage one.
	t := r.dt
	r.out = make([]int32, t.Ix.Total())
	r.in = make([]chan *tensor.Matrix, t.Ix.Total())
	for id := range r.out {
		r.out[id] = -1
	}
	for id := range r.out {
		g := r.globalOf(int32(id))
		for _, d := range t.ID[t.Off[id]:t.Off[id+1]] {
			if r.globalOf(d) == g {
				continue
			}
			r.out[d] = int32(id)
			if t.Ix.Stage(d) != t.Ix.Stage(int32(id)) {
				r.in[id] = make(chan *tensor.Matrix, 1)
			}
		}
	}
	return r, nil
}

// globalOf returns the global chunk of the op with dense id.
func (r *Runner) globalOf(id int32) int {
	k, op := r.dt.Ix.At(id)
	return r.s.Place.Global(k, op.Chunk)
}

// stage is the per-goroutine execution state. Its per-family tables are
// indexed by OpIndex.FamilyOf minus fam0, and stash by op id minus base.
type stage struct {
	k    int
	base int32 // id of the stage's first op
	fam0 int32 // family of the stage's first op
	// sc is the stage's scratch arena; nil when checkpointing is enabled
	// (snapshots share activation references, so recycling would corrupt
	// replay) — the passes then fall back to plain allocation.
	sc *tensor.Scratch
	// layer states per (layer index, micro); nil for other stages' layers.
	layers [][]*nn.LayerState
	heads  []*nn.HeadState
	logits []*tensor.Matrix
	tasks  [][]nn.WeightTask
	// pieces counts each family's weight-gradient pieces run so far, the
	// count sched.PieceStep releases the family's buffers by.
	pieces []int32
	// stash holds tensors handed between chunks that live on the same
	// stage (e.g. single-stage pipelines with several chunks, or ZBV's
	// V-shape turn), by consumer op. Program order guarantees the
	// producer ran first.
	stash []*tensor.Matrix
	loss  float64
	err   error
	// res is the stage's recovery state when checkpointing is enabled.
	res *resilience
	// rng is the stage's deterministic jitter source for retry backoff.
	rng *rand.Rand
}

// Run executes the schedule and returns the mean loss. Gradients accumulate
// into the model with the same normalisation as nn.Model.TrainSequential.
func (r *Runner) Run() (float64, error) {
	return r.RunContext(context.Background())
}

// WithTrace attaches a sink receiving wall-clock op spans and cross-stage
// transfer events as the stages execute, and returns the receiver. The sink
// must be safe for concurrent emission (obs.Recorder is). Runtime op spans
// include any time spent blocked on the op's input; that wait is also
// reported separately as a stall event. Op events carry the op's GEMM
// FLOPs and freshly-allocated bytes (both zero under checkpointing, where
// stages run without a scratch arena).
func (r *Runner) WithTrace(sink obs.Sink) *Runner {
	r.trace = sink
	return r
}

// WithKernels applies a GEMM kernel configuration (worker count, rows per
// work unit) to the shared kernel pool when the run starts. Kernel parallelism
// never changes results: work is partitioned by destination-row ownership,
// so outputs are bitwise identical to serial execution.
func (r *Runner) WithKernels(cfg tensor.KernelConfig) *Runner {
	r.kernels = &cfg
	return r
}

// cancelPanic aborts a stage goroutine when the run's context is cancelled;
// the recover handler turns it into errs.ErrCancelled.
type cancelPanic struct{}

// abortPanic unwinds a stage blocked (or about to block) after another
// stage failed; the recover handler wraps it in errs.ErrStageFailed.
type abortPanic struct{}

// failPanic carries an unrecoverable stage failure from deep in the
// execution path to the goroutine's recover handler.
type failPanic struct {
	idx int
	op  sched.Op
	err error
}

func (f failPanic) String() string {
	return fmt.Sprintf("stage failure at op %d (%v): %v", f.idx, f.op, f.err)
}

// RunContext is Run with cancellation: when ctx is cancelled, every stage —
// including those blocked waiting for cross-stage tensors — unwinds, and
// the call returns an error wrapping errs.ErrCancelled with no goroutines
// left behind.
func (r *Runner) RunContext(ctx context.Context) (float64, error) {
	r.ctx = ctx
	r.t0 = r.clock()
	r.applyKernels()
	stages := make([]*stage, r.s.P)
	for k := range stages {
		stages[k] = r.newStage(k)
	}
	var wg sync.WaitGroup
	for k := 0; k < r.s.P; k++ {
		st := stages[k]
		spawn(&wg, func() { r.runStageGuarded(st) })
	}
	wg.Wait()
	for _, st := range stages {
		r.releaseStage(st)
	}
	if r.failErr != nil {
		return 0, r.failErr
	}
	total := 0.0
	for _, st := range stages {
		if st.err != nil {
			return 0, st.err
		}
		total += st.loss
	}
	return total, nil
}

// runStageGuarded is the latch-guarded body of one stage goroutine: it
// converts the stage's control-flow panics into classified errors and
// latches unrecoverable failures so every blocked peer unwinds.
func (r *Runner) runStageGuarded(st *stage) {
	defer func() {
		if p := recover(); p != nil {
			switch v := p.(type) {
			case cancelPanic:
				st.err = fmt.Errorf("pipeline: stage %d: %w", st.k, errs.ErrCancelled)
			case abortPanic:
				st.err = fmt.Errorf("pipeline: stage %d aborted after a peer stage failed: %w", st.k, errs.ErrStageFailed)
			case failPanic:
				st.err = &StageFailure{Stage: st.k, OpIndex: v.idx, Op: v.op, Err: v.err}
				r.fail(st.err)
			default:
				st.err = fmt.Errorf("pipeline: stage %d panicked: %v: %w", st.k, p, errs.ErrStageFailed)
				r.fail(st.err)
			}
			return
		}
		if st.err != nil {
			r.fail(st.err)
		}
	}()
	r.runStage(st)
}

// fail latches the run's first unrecoverable failure and releases every
// stage blocked on cross-stage traffic, guaranteeing all goroutines exit.
func (r *Runner) fail(err error) {
	r.failOnce.Do(func() {
		r.failErr = err
		close(r.failed)
	})
}

// checkAborted unwinds the calling stage if a peer already failed.
func (r *Runner) checkAborted() {
	select {
	case <-r.failed:
		panic(abortPanic{})
	default:
	}
}

// now returns seconds since the run started (by the runner's clock), the
// trace time base.
func (r *Runner) now() float64 { return r.clock().Sub(r.t0).Seconds() }

// newStage allocates the mutable execution state of one stage.
func (r *Runner) newStage(k int) *stage {
	ix := r.dt.Ix
	base := int32(k * ix.PerStage())
	fams := ix.Families() / r.s.P
	st := &stage{
		k:      k,
		base:   base,
		fam0:   ix.FamilyOf(base),
		layers: make([][]*nn.LayerState, len(r.layerChunk)),
		heads:  make([]*nn.HeadState, r.s.N),
		logits: make([]*tensor.Matrix, fams),
		tasks:  make([][]nn.WeightTask, fams),
		pieces: make([]int32, fams),
		stash:  make([]*tensor.Matrix, ix.PerStage()),
	}
	for c := 0; c < r.s.V; c++ {
		g := r.s.Place.Global(k, c)
		for _, li := range r.chunkLayers[g] {
			states := make([]*nn.LayerState, r.s.N)
			for m := range states {
				states[m] = nn.NewLayerState(r.model.Cfg)
			}
			st.layers[li] = states
		}
	}
	for m := range st.heads {
		st.heads[m] = nn.NewHeadState()
	}
	if r.ckptEvery > 0 {
		st.res = &resilience{every: r.ckptEvery}
	} else {
		st.sc = tensor.GrabScratch()
	}
	st.rng = rand.New(rand.NewSource(0x5eed + int64(k)))
	return st
}

// applyKernels installs the runner's kernel configuration on the shared
// pool, skipping the swap when it is already in effect (per-step runner
// construction must not churn worker pools).
func (r *Runner) applyKernels() {
	if r.kernels == nil {
		return
	}
	if want := tensor.NormalizeKernelConfig(*r.kernels); want != tensor.CurrentConfig() {
		tensor.Configure(want)
	}
}

// releaseStage returns the stage's arena to the shared pool.
func (r *Runner) releaseStage(st *stage) {
	tensor.ReleaseScratch(st.sc)
	st.sc = nil
}

func (r *Runner) runStage(st *stage) {
	ops := r.s.Stages[st.k]
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if r.ctx.Err() != nil {
			panic(cancelPanic{})
		}
		r.checkAborted()
		if st.res != nil && i >= st.res.replayUntil && i%st.res.every == 0 {
			r.checkpoint(st, i, op)
		}
		if r.hook != nil {
			if err := r.hook.BeforeOp(st.k, i, op); err != nil {
				i = r.recoverStage(st, i, op, err)
				continue
			}
		}
		start := r.now()
		before := st.sc.Stats()
		id := r.dt.Ix.ID(st.k, op)
		switch op.Kind {
		case sched.F:
			r.forward(st, op, id)
		case sched.B, sched.BAct:
			r.backward(st, op, id, op.Kind == sched.B)
		case sched.W, sched.WPiece:
			r.weight(st, op, id)
		}
		if st.err != nil {
			panic(failPanic{idx: i, op: op, err: st.err})
		}
		if r.trace != nil {
			cause := ""
			if st.res != nil && i < st.res.replayUntil {
				cause = "replay"
			}
			after := st.sc.Stats()
			r.trace.Emit(obs.Event{
				Kind: obs.EvOp, Stage: st.k, From: st.k, Op: op,
				Start: start, End: r.now(), Cause: cause,
				Bytes: after.AllocBytes - before.AllocBytes,
				FLOPs: after.FLOPs - before.FLOPs,
			})
		}
	}
}

// family returns the stage-local family number of the op with dense id.
func (r *Runner) family(st *stage, id int32) int32 { return r.dt.Ix.FamilyOf(id) - st.fam0 }

func (r *Runner) forward(st *stage, op sched.Op, id int32) {
	g := r.s.Place.Global(st.k, op.Chunk)
	start := op.Slice * r.sliceTokens
	var x *tensor.Matrix
	if g == 0 {
		tokens := r.batch[op.Micro][start : start+r.sliceTokens]
		x = r.model.Embed.Forward(st.sc, tokens)
	} else {
		x = r.receive(st, op, id)
	}
	for _, li := range r.chunkLayers[g] {
		if r.model.LeanActivations {
			x = r.model.Layers[li].ForwardSliceLean(st.sc, st.layers[li][op.Micro], x, start)
		} else {
			x = r.model.Layers[li].ForwardSlice(st.sc, st.layers[li][op.Micro], x, start)
		}
	}
	if g == r.s.TotalChunks()-1 {
		logits := r.model.Head.Forward(st.sc, x, st.heads[op.Micro], start)
		st.logits[r.family(st, id)] = logits
		return
	}
	r.deliver(st, id, op, x)
}

// receive obtains the cross-chunk input of op (dense id): its channel for
// a cross-stage edge, the local stash otherwise. Channel waits select on
// the run context and the failure latch, so a cancelled RunContext — or a failed
// peer stage — unwinds stages blocked here. During restore-and-replay the
// input is served from the stage's receive log instead: the producer will
// not resend.
func (r *Runner) receive(st *stage, op sched.Op, id int32) *tensor.Matrix {
	if ch := r.in[id]; ch != nil {
		if st.res != nil && st.res.replayIdx < len(st.res.recvLog) {
			x := st.res.recvLog[st.res.replayIdx]
			st.res.replayIdx++
			return x
		}
		waitFrom := 0.0
		if r.trace != nil {
			waitFrom = r.now()
		}
		var x *tensor.Matrix
		select {
		case x = <-ch:
		case <-r.ctx.Done():
			panic(cancelPanic{})
		case <-r.failed:
			panic(abortPanic{})
		}
		if st.res != nil {
			st.res.recvLog = append(st.res.recvLog, x)
			st.res.replayIdx = len(st.res.recvLog)
		}
		if r.trace != nil {
			r.traceArrival(st.k, op, id, waitFrom, x)
		}
		return x
	}
	x := st.stash[id-st.base]
	if x == nil {
		panic(fmt.Sprintf("pipeline: stage %d: no input for %v", st.k, op))
	}
	st.stash[id-st.base] = nil
	return x
}

// traceArrival emits the comm event for a tensor that just arrived for op,
// plus a stall event when the stage measurably blocked waiting for it.
func (r *Runner) traceArrival(k int, op sched.Op, id int32, waitFrom float64, x *tensor.Matrix) {
	now := r.now()
	from := k
	for _, d := range r.dt.ID[r.dt.Off[id]:r.dt.Off[id+1]] {
		if from = r.dt.Ix.Stage(d); from != k {
			break
		}
	}
	r.trace.Emit(obs.Event{
		Kind: obs.EvComm, Stage: k, From: from, Op: op,
		Start: waitFrom, End: now, Bytes: int64(len(x.Data)) * 4,
	})
	if now > waitFrom {
		r.trace.Emit(obs.Event{
			Kind: obs.EvStall, Stage: k, From: k, Op: op,
			Start: waitFrom, End: now, Cause: "dep",
		})
	}
}

// deliver hands x, the output of producer (dense id), to its consumer
// out[id]. Cross-stage deliveries run through the transport hook (with
// transient-failure retry) and are suppressed during replay when the
// original execution already delivered them — peers must not see a frame
// twice.
func (r *Runner) deliver(st *stage, id int32, producer sched.Op, x *tensor.Matrix) {
	consumer := r.out[id]
	ch := r.in[consumer]
	if ch == nil {
		st.stash[consumer-st.base] = x
		return
	}
	if st.res != nil {
		if st.res.sendSeq < st.res.sendHW {
			st.res.sendSeq++ // replay of an already-delivered frame
			return
		}
		st.res.sendSeq++
		st.res.sendHW++
	}
	r.sendRetrying(st, r.dt.Ix.Stage(consumer), producer)
	select {
	case ch <- x:
	case <-r.ctx.Done():
		panic(cancelPanic{})
	case <-r.failed:
		panic(abortPanic{})
	}
}

func (r *Runner) backward(st *stage, op sched.Op, id int32, fused bool) {
	g := r.s.Place.Global(st.k, op.Chunk)
	start := op.Slice * r.sliceTokens
	fam := r.family(st, id)
	var dy *tensor.Matrix
	var tasks []nn.WeightTask
	if g == r.s.TotalChunks()-1 {
		// Loss gradient: mean over slices and micro-batches, matching
		// the sequential reference.
		logits := st.logits[fam]
		st.logits[fam] = nil
		targets := r.batch[op.Micro][start+1 : start+r.sliceTokens+1]
		dLogits := st.sc.GetRaw(r.sliceTokens, r.model.Cfg.Vocab)
		norm := float64(r.s.S * r.s.N)
		st.loss += tensor.CrossEntropy(dLogits, logits, targets) / norm
		dLogits.Scale(float32(1 / norm))
		st.sc.Put(logits)
		dy, tasks = r.model.Head.Backward(st.sc, dLogits, st.heads[op.Micro], start, nil)
	} else {
		dy = r.receive(st, op, id)
	}
	layers := r.chunkLayers[g]
	for i := len(layers) - 1; i >= 0; i-- {
		li := layers[i]
		dy, tasks = r.model.Layers[li].BackwardSlice(st.sc, st.layers[li][op.Micro], start, dy, tasks)
	}
	if g == 0 {
		tokens := r.batch[op.Micro][start : start+r.sliceTokens]
		r.model.Embed.Backward(tokens, dy)
		st.sc.Put(dy)
	} else {
		r.deliver(st, id, op, dy)
	}
	if fused {
		for _, t := range tasks {
			t.RunCounted(st.sc)
		}
		nn.Release(st.sc, tasks)
		return
	}
	st.tasks[fam] = tasks
}

// weight executes the op's piece of the family's deferred GEMMs (whole W
// runs all of them).
func (r *Runner) weight(st *stage, op sched.Op, id int32) {
	p, of := op.Piece, max(r.s.WPieces, 1)
	fam := r.family(st, id)
	tasks := st.tasks[fam]
	if tasks == nil {
		st.err = fmt.Errorf("pipeline: stage %d: weight op %v before its backward: %w", st.k, op, errs.ErrUncertified)
		return
	}
	lo := len(tasks) * p / of
	hi := len(tasks) * (p + 1) / of
	for _, t := range tasks[lo:hi] {
		t.RunCounted(st.sc)
	}
	if sched.PieceStep(op.Kind, &st.pieces[fam], r.s.WPieces) == sched.Release {
		// The family's last piece to run: every task has run, so the
		// buffers the family retained (shared across pieces) can go back
		// to the arena.
		nn.Release(st.sc, tasks)
		st.tasks[fam] = nil
	}
}
