package pipeline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/nn"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
	"mepipe/internal/tensor"
)

// crashOnce fails one (stage, op index) exactly once.
type crashOnce struct {
	stage, at int
	fired     bool
	err       error
}

func (c *crashOnce) BeforeOp(stage, index int, op sched.Op) error {
	if stage == c.stage && index == c.at && !c.fired {
		c.fired = true
		if c.err != nil {
			return c.err
		}
		return fmt.Errorf("test: injected crash at stage %d op %d", stage, index)
	}
	return nil
}

// multiCrash fails a set of (stage, op index) points, each once.
type multiCrash struct{ at map[[2]int]*crashOnce }

func newMultiCrash(points ...[2]int) *multiCrash {
	m := &multiCrash{at: map[[2]int]*crashOnce{}}
	for _, p := range points {
		m.at[p] = &crashOnce{stage: p[0], at: p[1]}
	}
	return m
}

func (m *multiCrash) BeforeOp(stage, index int, op sched.Op) error {
	if c := m.at[[2]int{stage, index}]; c != nil {
		return c.BeforeOp(stage, index, op)
	}
	return nil
}

// flakyTransport fails the first `failFirst` attempts of every frame with a
// transient error; failAlways exhausts any retry budget.
type flakyTransport struct {
	failFirst  int
	failAlways bool
}

func (t *flakyTransport) Send(from, to int, op sched.Op, attempt int) error {
	if t.failAlways || attempt < t.failFirst {
		return fmt.Errorf("test: dropped %v on %d->%d: %w", op, from, to, errs.ErrTransient)
	}
	return nil
}

func svpp4(t *testing.T) *sched.Schedule {
	t.Helper()
	s, err := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 3, Reschedule: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runResilient executes s with the given runner mutator and compares loss
// and gradients against sequential execution.
func runResilient(t *testing.T, s *sched.Schedule, seed int64, mutate func(*Runner)) {
	t.Helper()
	c := cfg()
	rng := rand.New(rand.NewSource(seed))
	b := batch(rng, c, s.N)

	pipeM, err := nn.NewModel(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(pipeM, s, b)
	if err != nil {
		t.Fatal(err)
	}
	mutate(r)
	pipeLoss, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	seqM, err := nn.NewModel(c, seed)
	if err != nil {
		t.Fatal(err)
	}
	seqLoss, err := seqM.TrainSequential(b, s.S)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pipeLoss-seqLoss) > 1e-5 {
		t.Errorf("%s: resilient loss %.8f != sequential %.8f", s, pipeLoss, seqLoss)
	}
	pg, sg := pipeM.Grads(), seqM.Grads()
	for name, ref := range sg {
		if d := tensor.MaxAbsDiff(ref, pg[name]); d > 1e-4 {
			t.Errorf("%s: grad %s differs by %g after recovery", s, name, d)
		}
	}
}

// TestCrashEveryStageFailsCleanly is the deadlock-freedom check: without
// checkpointing, a crash injected at EVERY stage index of a P=4 SVPP
// schedule must fail the iteration with an error wrapping
// errs.ErrStageFailed — and every goroutine must exit (a leak would hang
// Run; a racy unwind trips -race in CI).
func TestCrashEveryStageFailsCleanly(t *testing.T) {
	s := svpp4(t)
	c := cfg()
	rng := rand.New(rand.NewSource(7))
	b := batch(rng, c, s.N)
	cause := errors.New("test: boom")
	for stage := 0; stage < s.P; stage++ {
		for _, frac := range []int{0, 1, 2} {
			at := frac * (len(s.Stages[stage]) - 1) / 2
			t.Run(fmt.Sprintf("stage%d_op%d", stage, at), func(t *testing.T) {
				m, err := nn.NewModel(c, 7)
				if err != nil {
					t.Fatal(err)
				}
				r, err := New(m, s, b)
				if err != nil {
					t.Fatal(err)
				}
				r.WithStageHook(&crashOnce{stage: stage, at: at, err: cause})
				_, err = r.Run()
				if err == nil {
					t.Fatal("run survived an unrecoverable crash")
				}
				if !errors.Is(err, errs.ErrStageFailed) {
					t.Errorf("error %v does not wrap ErrStageFailed", err)
				}
				var sf *StageFailure
				if errors.As(err, &sf) {
					if sf.Stage != stage || sf.OpIndex != at || !errors.Is(sf.Err, cause) {
						t.Errorf("failure %v, want stage %d op %d cause %v", sf, stage, at, cause)
					}
				}
			})
		}
	}
}

// TestRecoveryGradientEquivalence: with checkpointing enabled, a crashed
// stage restores and replays, and the iteration's loss and gradients stay
// bit-compatible with sequential execution — peers never notice. In the
// reversed-pieces case, checkpoints every 2 ops land between a family's
// pieces, so the snapshot must carry the family's pieces-run count.
func TestRecoveryGradientEquivalence(t *testing.T) {
	builds := []struct {
		name string
		s    func() (*sched.Schedule, error)
	}{
		{"svpp", func() (*sched.Schedule, error) {
			return sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 3, Reschedule: true})
		}},
		{"mepipe-split", func() (*sched.Schedule, error) { return sched.MEPipe(4, 1, 2, 3, 0, 5, nil) }},
		{"vpp", func() (*sched.Schedule, error) { return sched.VPP(4, 2, 4, nil) }},
		{"mepipe-pieces-reversed", mepipeReversed},
	}
	for _, bd := range builds {
		bd := bd
		t.Run(bd.name, func(t *testing.T) {
			t.Parallel()
			s, err := bd.s()
			if err != nil {
				t.Fatal(err)
			}
			for stage := 0; stage < s.P; stage++ {
				at := len(s.Stages[stage]) / 2
				t.Run(fmt.Sprintf("crash_stage%d_op%d", stage, at), func(t *testing.T) {
					runResilient(t, s, 31, func(r *Runner) {
						r.WithCheckpointEvery(2).WithStageHook(&crashOnce{stage: stage, at: at})
					})
				})
			}
		})
	}
}

// TestRepeatedCrashesRecover: several stages crash (one of them twice at
// different ops) in one iteration; every fault restores independently.
func TestRepeatedCrashesRecover(t *testing.T) {
	s := svpp4(t)
	last := len(s.Stages[1]) - 1
	runResilient(t, s, 11, func(r *Runner) {
		r.WithCheckpointEvery(3).WithStageHook(newMultiCrash(
			[2]int{0, 2}, [2]int{1, 4}, [2]int{1, last}, [2]int{3, 1},
		))
	})
}

// TestCrashWithoutCheckpointFails: faults without a checkpoint to restore
// from degrade gracefully into a classified iteration failure.
func TestCrashWithoutCheckpointFails(t *testing.T) {
	s := svpp4(t)
	c := cfg()
	b := batch(rand.New(rand.NewSource(3)), c, s.N)
	m, err := nn.NewModel(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, s, b)
	if err != nil {
		t.Fatal(err)
	}
	r.WithStageHook(&crashOnce{stage: 2, at: 5})
	if _, err = r.Run(); !errors.Is(err, errs.ErrStageFailed) {
		t.Fatalf("got %v, want ErrStageFailed", err)
	}
}

// TestTransientSendRetry: a transport that drops the first attempts of
// every frame is absorbed by bounded retry — the run still matches
// sequential execution, and the trace records the retries.
func TestTransientSendRetry(t *testing.T) {
	s := svpp4(t)
	rec := obs.NewRecorder()
	runResilient(t, s, 17, func(r *Runner) {
		r.WithTransport(&flakyTransport{failFirst: 2}).WithTrace(rec)
	})
	snap := rec.Trace().Snapshot()
	retries := 0
	for _, m := range snap.Stages {
		retries += m.Retries
	}
	if retries == 0 {
		t.Error("no retry events recorded for a flaky transport")
	}
}

// TestRetryExhaustionFails: a permanently failing link escalates to an
// unrecoverable stage failure wrapping both sentinels.
func TestRetryExhaustionFails(t *testing.T) {
	s := svpp4(t)
	c := cfg()
	b := batch(rand.New(rand.NewSource(5)), c, s.N)
	m, err := nn.NewModel(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, s, b)
	if err != nil {
		t.Fatal(err)
	}
	r.WithTransport(&flakyTransport{failAlways: true})
	_, err = r.Run()
	if !errors.Is(err, errs.ErrStageFailed) || !errors.Is(err, errs.ErrTransient) {
		t.Fatalf("got %v, want ErrStageFailed wrapping ErrTransient", err)
	}
}

// TestRecoveryEventsTraced: faults, checkpoints, restores and replayed ops
// all surface as first-class span events in the trace.
func TestRecoveryEventsTraced(t *testing.T) {
	s := svpp4(t)
	rec := obs.NewRecorder()
	runResilient(t, s, 23, func(r *Runner) {
		r.WithCheckpointEvery(2).
			WithStageHook(&crashOnce{stage: 1, at: 5}).
			WithTrace(rec)
	})
	snap := rec.Trace().Snapshot()
	m := snap.Stages[1]
	if m.Faults != 1 || m.Restores != 1 {
		t.Errorf("stage 1 recorded %d faults / %d restores, want 1 / 1", m.Faults, m.Restores)
	}
	if m.Checkpoints == 0 {
		t.Error("no checkpoint events recorded")
	}
	if m.Replayed == 0 {
		t.Error("no replayed ops recorded after a restore")
	}
	for k, sm := range snap.Stages {
		if k != 1 && (sm.Faults != 0 || sm.Restores != 0) {
			t.Errorf("stage %d recorded %d faults / %d restores, want none", k, sm.Faults, sm.Restores)
		}
	}
}

// TestRecoveryDeterminism: identical seeds and fault plans give bit-equal
// losses and gradients across runs.
func TestRecoveryDeterminism(t *testing.T) {
	s := svpp4(t)
	c := cfg()
	run := func() (float64, map[string]*tensor.Matrix) {
		b := batch(rand.New(rand.NewSource(41)), c, s.N)
		m, err := nn.NewModel(c, 41)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(m, s, b)
		if err != nil {
			t.Fatal(err)
		}
		r.WithCheckpointEvery(2).WithStageHook(newMultiCrash([2]int{2, 5}, [2]int{0, 3}))
		loss, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return loss, m.Grads()
	}
	l1, g1 := run()
	l2, g2 := run()
	if l1 != l2 {
		t.Errorf("losses differ across identical faulty runs: %v vs %v", l1, l2)
	}
	for name, a := range g1 {
		if d := tensor.MaxAbsDiff(a, g2[name]); d != 0 {
			t.Errorf("grad %s differs by %g across identical faulty runs", name, d)
		}
	}
}

// TestCheckpointEventBytesPinned: every stage's EvCkpt snapshot bytes, and
// the recovered gradients, are the values recorded before snapshots walked
// the parameter table through the ownership rule.
func TestCheckpointEventBytesPinned(t *testing.T) {
	c := cfg()
	s := svpp4(t)
	m, _ := nn.NewModel(c, 23)
	r, err := New(m, s, batch(rand.New(rand.NewSource(23)), c, s.N))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r.WithCheckpointEvery(2).WithStageHook(&crashOnce{stage: 1, at: 5}).WithTrace(rec)
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, s.P)
	count := make([]int, s.P)
	for _, e := range rec.Trace().Events {
		if e.Kind == obs.EvCkpt {
			bytes[e.Stage] += e.Bytes
			count[e.Stage]++
		}
	}
	if want := []int64{33984, 31488, 31488, 34176}; fmt.Sprint(bytes) != fmt.Sprint(want) {
		t.Errorf("checkpoint bytes per stage %v, want %v", bytes, want)
	}
	if want := []int{6, 6, 6, 6}; fmt.Sprint(count) != fmt.Sprint(want) {
		t.Errorf("checkpoints per stage %v, want %v", count, want)
	}
	const want = "7b9e68cb48bbd6a7df486c1d19f25f9362539bc6d8355f8f27448670bc979f05"
	if got := gradHash(m); got != want {
		t.Errorf("recovered gradient sha256 %s, want %s", got, want)
	}
}
