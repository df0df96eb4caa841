package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// sessClone deep-copies a schedule's op lists (shape/placement shared).
func sessClone(s *sched.Schedule) *sched.Schedule {
	out := *s
	out.Stages = make([][]sched.Op, len(s.Stages))
	for k := range s.Stages {
		out.Stages[k] = append([]sched.Op(nil), s.Stages[k]...)
	}
	return &out
}

// sessDisplace mirrors internal/opt's displace: move ops[from] to to,
// sliding the range between.
func sessDisplace(ops []sched.Op, from, to int) {
	op := ops[from]
	if from < to {
		copy(ops[from:], ops[from+1:to+1])
	} else {
		copy(ops[to+1:], ops[to:from])
	}
	ops[to] = op
}

// sessLCG is a tiny deterministic generator for move sequences.
type sessLCG uint64

func (l *sessLCG) next(n int) int {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int((uint64(*l) >> 33) % uint64(n))
}

// requireSameResult asserts bitwise identity between a reference replay
// (runRef) and a session evaluation — the fast path's hard gate.
func requireSameResult(t *testing.T, full, inc *Result, label string) {
	t.Helper()
	if full == nil || inc == nil {
		t.Fatalf("%s: nil result (full=%v inc=%v)", label, full == nil, inc == nil)
	}
	if math.Float64bits(full.IterTime) != math.Float64bits(inc.IterTime) {
		t.Fatalf("%s: IterTime %v != %v", label, full.IterTime, inc.IterTime)
	}
	if math.Float64bits(full.BubbleRatio) != math.Float64bits(inc.BubbleRatio) {
		t.Fatalf("%s: BubbleRatio %v != %v", label, full.BubbleRatio, inc.BubbleRatio)
	}
	if full.PeakAct != inc.PeakAct {
		t.Fatalf("%s: PeakAct %d != %d", label, full.PeakAct, inc.PeakAct)
	}
	if full.OOM != inc.OOM || full.OOMStage != inc.OOMStage {
		t.Fatalf("%s: OOM %v@%d != %v@%d", label, full.OOM, full.OOMStage, inc.OOM, inc.OOMStage)
	}
	if len(full.Stages) != len(inc.Stages) {
		t.Fatalf("%s: stage count %d != %d", label, len(full.Stages), len(inc.Stages))
	}
	for k := range full.Stages {
		fs, is := &full.Stages[k], &inc.Stages[k]
		if math.Float64bits(fs.ComputeTime) != math.Float64bits(is.ComputeTime) {
			t.Fatalf("%s: stage %d ComputeTime %v != %v", label, k, fs.ComputeTime, is.ComputeTime)
		}
		if math.Float64bits(fs.Finish) != math.Float64bits(is.Finish) {
			t.Fatalf("%s: stage %d Finish %v != %v", label, k, fs.Finish, is.Finish)
		}
		if fs.PeakAct != is.PeakAct {
			t.Fatalf("%s: stage %d PeakAct %d != %d", label, k, fs.PeakAct, is.PeakAct)
		}
	}
}

// sessionPair evaluates candidates through two sessions bound to the same
// options: se untraced, which keeps the untraced path honest, and te
// emitting into rec, whose recording carries the per-op timeline a Result
// does not. te is nil when the pair is untraced.
type sessionPair struct {
	se, te *Session
	rec    *obs.Recorder
}

func newSessionPair(t *testing.T, opt Options, traced bool) *sessionPair {
	t.Helper()
	p := &sessionPair{}
	var err error
	if p.se, err = NewSession(opt); err != nil {
		t.Fatal(err)
	}
	if traced {
		p.rec = obs.NewRecorder()
		opt.Trace = p.rec
		if p.te, err = NewSession(opt); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// eval evaluates cand (opt's schedule replaced) through the reference
// replay and both sessions, which must all succeed or all fail alike. On
// success both results must equal the reference's bit for bit, and te's
// recording the reference's recording of the same run: every event, each
// op's start and end included. It returns the reference's error and the
// untraced session's.
func (p *sessionPair) eval(t *testing.T, opt Options, cand *sched.Schedule, label string) (fullErr, incErr error) {
	t.Helper()
	opt.Sched = cand
	var ref *obs.Recorder
	if p.te != nil {
		ref = obs.NewRecorder()
		opt.Trace = ref
		p.rec.Reset()
	}
	full, fullErr := runRef(opt)
	inc, incErr := p.se.Eval(cand)
	if (fullErr == nil) != (incErr == nil) {
		t.Fatalf("%s: full err %v, incremental err %v", label, fullErr, incErr)
	}
	if fullErr == nil {
		requireSameResult(t, full, inc, label)
	}
	if p.te == nil {
		return fullErr, incErr
	}
	traced, tErr := p.te.Eval(cand)
	if (tErr == nil) != (incErr == nil) || errors.Is(tErr, errs.ErrUncertified) != errors.Is(incErr, errs.ErrUncertified) {
		t.Fatalf("%s: traced session err %v, untraced %v", label, tErr, incErr)
	}
	if fullErr == nil {
		requireSameResult(t, full, traced, label+" (traced)")
		fuzzSameTrace(t, ref.Trace(), p.rec.Trace())
	}
	return fullErr, incErr
}

type sessionCase struct {
	name   string
	opt    Options // Sched filled per case below
	traced bool    // also check a traced session's recording
}

// sessionCases builds schedule × option variants covering static/dynamic,
// budgets and tails. Every case but mepipe/makespan, which checks the
// aggregates alone, also compares recordings.
func sessionCases(t *testing.T) []sessionCase {
	t.Helper()
	tail := func(k int) float64 { return 0.3 * float64(k+1) }
	mk := func(name string, s *sched.Schedule, err error, f func(*Options)) sessionCase {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := Options{Sched: s, Costs: UniformCosts{Est: sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.25, Comm: 0.2}, Act: 3, Grad: 1}}
		if f != nil {
			f(&o)
		}
		return sessionCase{name, o, name != "mepipe/makespan"}
	}
	budget := func(p int, b int64) []int64 {
		out := make([]int64, p)
		for i := range out {
			out[i] = b
		}
		return out
	}
	var cases []sessionCase
	s1, err1 := sched.MEPipe(4, 1, 2, 6, 0, 4, nil)
	cases = append(cases,
		mk("mepipe/static", sessClone(s1), err1, nil),
		mk("mepipe/makespan", sessClone(s1), err1, nil),
		mk("mepipe/budget", sessClone(s1), err1, func(o *Options) { o.ActBudget = budget(4, 14) }),
		mk("mepipe/tail", sessClone(s1), err1, func(o *Options) { o.TailTime = tail }),
		mk("mepipe/dynamic", sessClone(s1), err1, func(o *Options) { o.DynamicW = true }),
		mk("mepipe/dynamic-budget", sessClone(s1), err1, func(o *Options) {
			o.DynamicW = true
			o.ActBudget = budget(4, 14)
			o.TailTime = tail
		}),
	)
	s2, err2 := sched.MEPipe(3, 1, 2, 4, 0, 0, nil) // whole-W split
	cases = append(cases,
		mk("mepipe-wholew/static", sessClone(s2), err2, nil),
		mk("mepipe-wholew/dynamic-budget", sessClone(s2), err2, func(o *Options) {
			o.DynamicW = true
			o.ActBudget = budget(3, 11)
		}),
	)
	s3, err3 := sched.SVPP(sched.SVPPOptions{P: 4, V: 1, S: 2, N: 4})
	cases = append(cases, mk("svpp/fused", s3, err3, func(o *Options) { o.ActBudget = budget(4, 12) }))
	s4, err4 := sched.DAPPLE(4, 6, nil)
	cases = append(cases, mk("dapple", s4, err4, func(o *Options) { o.TailTime = tail }))
	s5, err5 := sched.VPP(4, 2, 4, nil)
	cases = append(cases, mk("vpp", s5, err5, nil))
	return cases
}

// TestSessionMatchesRun drives each case through a long deterministic move
// walk, comparing every session evaluation bitwise against a fresh
// reference replay (runRef) — including steps whose order deadlocks, where
// both sides must fail with the same error class.
func TestSessionMatchesRun(t *testing.T) {
	for _, tc := range sessionCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newSessionPair(t, tc.opt, tc.traced)
			cur := sessClone(tc.opt.Sched)
			rng := sessLCG(1)
			valid, invalid := 0, 0
			for step := 0; step < 160; step++ {
				cand := sessClone(cur)
				k := rng.next(cand.P)
				ops := cand.Stages[k]
				if len(ops) >= 2 {
					switch rng.next(3) {
					case 0: // adjacent swap (the annealer's cheapest move)
						i := rng.next(len(ops) - 1)
						ops[i], ops[i+1] = ops[i+1], ops[i]
					case 1: // short shift, usually survivable
						from := rng.next(len(ops))
						to := from + rng.next(7) - 3
						if to < 0 {
							to = 0
						}
						if to >= len(ops) {
							to = len(ops) - 1
						}
						sessDisplace(ops, from, to)
					default: // long displace, usually deadlocks
						sessDisplace(ops, rng.next(len(ops)), rng.next(len(ops)))
					}
				}
				fullErr, incErr := p.eval(t, tc.opt, cand, fmt.Sprintf("%s step %d", tc.name, step))
				if fullErr != nil {
					// Keep walking from the last valid order, as the
					// annealer does with rejected candidates.
					invalid++
					if !errors.Is(incErr, errs.ErrUncertified) && !errors.Is(incErr, errs.ErrIncompatible) {
						t.Fatalf("step %d: incremental error class %v (full: %v)", step, incErr, fullErr)
					}
					if errors.Is(fullErr, errs.ErrUncertified) != errors.Is(incErr, errs.ErrUncertified) {
						t.Fatalf("step %d: error classes differ: full %v, incremental %v", step, fullErr, incErr)
					}
					continue
				}
				valid++
				cur = cand
			}
			if valid < 20 {
				t.Fatalf("move walk produced only %d valid schedules", valid)
			}
			t.Logf("%s: %d valid, %d deadlocked steps", tc.name, valid, invalid)
		})
	}
}

// TestSessionRecoversAfterError pins that an Eval that fails (deadlocked
// order) leaves the session usable: the next valid order must still match
// the reference replay bitwise.
func TestSessionRecoversAfterError(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 4, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Sched: s, Costs: Unit()}
	p := newSessionPair(t, opt, true)
	bad := sessClone(s)
	// Reverse stage 0: every family's BAct now precedes its F, a
	// program-order/dependency cycle.
	ops := bad.Stages[0]
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	if _, err := p.eval(t, opt, bad, "reversed"); !errors.Is(err, errs.ErrUncertified) {
		t.Fatalf("reversed stage: got %v, want ErrUncertified", err)
	}
	if _, err := p.eval(t, opt, sessClone(s), "recovery"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionIncompatible pins the rebuild contract: shape or placement
// mismatches report errs.ErrIncompatible instead of garbage.
func TestSessionIncompatible(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 4, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSession(Options{Sched: s, Costs: Unit()})
	if err != nil {
		t.Fatal(err)
	}
	other, err := sched.MEPipe(4, 1, 2, 6, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Eval(other); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("different N: got %v, want ErrIncompatible", err)
	}
	if _, err := se.Eval(nil); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("nil schedule: got %v, want ErrIncompatible", err)
	}
	// Same shape, broken multiset: duplicate one op over another.
	bad := sessClone(s)
	bad.Stages[0][0] = bad.Stages[0][1]
	if _, err := se.Eval(bad); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("duplicated op: got %v, want ErrIncompatible", err)
	}
	// And the session still works on the bound schedule afterwards.
	if _, err := se.Eval(s); err != nil {
		t.Fatalf("after incompatible evals: %v", err)
	}
	// Binding needs the complete op universe: a short table, a duplicate
	// and an out-of-shape op are all incompatible, not silently
	// simulated.
	short := sessClone(s)
	short.Stages[2] = short.Stages[2][1:]
	dup := sessClone(s)
	dup.Stages[1][3] = dup.Stages[1][4]
	outside := sessClone(s)
	outside.Stages[0][0].Micro = s.N
	for i, b := range []*sched.Schedule{short, dup, outside} {
		if _, err := NewSession(Options{Sched: b, Costs: Unit()}); !errors.Is(err, errs.ErrIncompatible) {
			t.Fatalf("malformed table %d: got %v, want ErrIncompatible", i, err)
		}
	}
	// A piece number on a forward resolves to the forward's own id, yet
	// the table is not the universe: the bind and Eval's load reject it,
	// on a clean session and after a failed Eval alike.
	d, err := sched.DAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	stray := sessClone(d)
	stray.Stages[1][0].Piece = 7
	if _, err := NewSession(Options{Sched: stray, Costs: Unit()}); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("stray piece at bind: got %v, want ErrIncompatible", err)
	}
	clean, err := NewSession(Options{Sched: d, Costs: Unit()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Eval(stray); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("stray piece: got %v, want ErrIncompatible", err)
	}
	if _, err := clean.Eval(d); err != nil {
		t.Fatalf("after the stray piece: %v", err)
	}
	dupD := sessClone(d)
	dupD.Stages[0][0] = dupD.Stages[0][1]
	if _, err := clean.Eval(dupD); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("duplicated op: got %v, want ErrIncompatible", err)
	}
	if _, err := clean.Eval(stray); !errors.Is(err, errs.ErrIncompatible) {
		t.Fatalf("stray piece after a failed Eval: got %v, want ErrIncompatible", err)
	}
	if _, err := clean.Eval(d); err != nil {
		t.Fatalf("after the second stray piece: %v", err)
	}
}

// TestSessionNonPositiveShape: binding an empty table of a non-positive
// shape is incompatible — neither a divide by zero nor a session over no
// ops.
func TestSessionNonPositiveShape(t *testing.T) {
	for _, shape := range [][4]int{{2, 1, 1, 0}, {0, 1, 1, 2}, {2, 0, 1, 2}, {2, 1, 0, 2}} {
		s := &sched.Schedule{Name: "empty", P: shape[0], V: shape[1], S: shape[2], N: shape[3],
			Place: sched.RoundRobin{P: max(shape[0], 1), V: 1}, Stages: make([][]sched.Op, shape[0])}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("shape %v: bind panicked: %v", shape, r)
				}
			}()
			if _, err := NewSession(Options{Sched: s, Costs: Unit()}); !errors.Is(err, errs.ErrIncompatible) {
				t.Errorf("shape %v: got %v, want ErrIncompatible", shape, err)
			}
		}()
	}
}

// TestSessionZeroAllocSteadyState is the arena-reuse gate: once warm, an
// untraced evaluation of a moved schedule must not allocate at all.
func TestSessionZeroAllocSteadyState(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 6, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Sched: s, Costs: Unit()}
	se, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	a := sessClone(s)
	b := sessClone(s)
	// A valid adjacent swap so both orders simulate: find one by trial.
	found := false
	for i := 0; i+1 < len(b.Stages[1]) && !found; i++ {
		b.Stages[1][i], b.Stages[1][i+1] = b.Stages[1][i+1], b.Stages[1][i]
		if _, err := Run(Options{Sched: b, Costs: Unit()}); err == nil {
			found = true
			break
		}
		b.Stages[1][i], b.Stages[1][i+1] = b.Stages[1][i+1], b.Stages[1][i]
	}
	if !found {
		t.Fatal("no valid adjacent swap found")
	}
	// Warm the session (grows queue/buffer capacity to steady state).
	for i := 0; i < 4; i++ {
		if _, err := se.Eval(a); err != nil {
			t.Fatal(err)
		}
		if _, err := se.Eval(b); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := se.Eval(a); err != nil {
			t.Fatal(err)
		}
		if _, err := se.Eval(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Eval allocates %.1f times per move pair, want 0", allocs)
	}
}

// TestRebindAllocs is the bind path's arena gate: once a session has bound
// a shape, re-binding it to a complete schedule of the same shape — the
// sweep workers' and the pooled Evaluate's steady state — reuses every
// table and allocates nothing, in static and dynamic mode alike.
func TestRebindAllocs(t *testing.T) {
	a, err := sched.MEPipe(4, 2, 2, 6, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.MEPipe(4, 2, 2, 6, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := []int64{40, 40, 40, 40}
	for _, dynamicW := range []bool{false, true} {
		optA := Options{Sched: a, Costs: Unit(), ActBudget: budget, DynamicW: dynamicW}
		optB := optA
		optB.Sched = b
		var se Session
		for _, o := range []Options{optA, optB} {
			if err := se.Bind(o); err != nil {
				t.Fatal(err)
			}
			if _, err := se.Eval(o.Sched); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := se.Bind(optA); err != nil {
				t.Fatal(err)
			}
			if err := se.Bind(optB); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("dynamicW=%v: re-binding allocates %.1f times per pair, want 0", dynamicW, allocs)
		}
	}
}

// TestEvaluateMatchesRun pins the pooled one-shot wrapper: identical result
// to the reference replay (runRef), caller-owned (survives later Evaluate
// calls), cancellation checked on entry.
func TestEvaluateMatchesRun(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 4, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Sched: s, Costs: Unit(), DynamicW: true, ActBudget: []int64{9, 9, 9, 9}}
	full, err := runRef(opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, full, got, "evaluate")
	// Traced, in dynamic and static mode alike, the recordings match too.
	for _, dynamicW := range []bool{true, false} {
		ref, rec := obs.NewRecorder(), obs.NewRecorder()
		o := opt
		o.DynamicW, o.TailTime = dynamicW, func(k int) float64 { return 0.5 * float64(k) }
		o.Trace = ref
		want, err := runRef(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Trace = rec
		traced, err := Evaluate(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, traced, fmt.Sprintf("traced evaluate, dynamicW=%v", dynamicW))
		fuzzSameTrace(t, ref.Trace(), rec.Trace())
	}
	// Result must be independent of the pooled session.
	for i := 0; i < 4; i++ {
		if _, err := Evaluate(context.Background(), Options{Sched: s, Costs: Unit()}); err != nil {
			t.Fatal(err)
		}
	}
	requireSameResult(t, full, got, "evaluate after pool reuse")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, opt); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled Evaluate: got %v, want ErrCancelled", err)
	}
}

// canonicalBenchWorkload is the artifact's canonical P=4/S=2/N=6 point.
func canonicalBenchWorkload(b *testing.B) (*sched.Schedule, Options) {
	b.Helper()
	s, err := sched.MEPipe(4, 1, 2, 6, 0, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s, Options{Sched: s, Costs: Unit()}
}

func benchCandidates(b *testing.B, base *sched.Schedule, n int) []*sched.Schedule {
	b.Helper()
	rng := sessLCG(3)
	cur := sessClone(base)
	out := make([]*sched.Schedule, 0, n)
	for len(out) < n {
		// Displace a clone and keep it only when it still runs: a
		// deadlocking move left in place would make every later
		// candidate deadlock too, and the loop would never end.
		next := sessClone(cur)
		k := rng.next(next.P)
		ops := next.Stages[k]
		sessDisplace(ops, rng.next(len(ops)), rng.next(len(ops)))
		if _, err := runRef(Options{Sched: next, Costs: Unit()}); err != nil {
			continue
		}
		cur = next
		out = append(out, sessClone(cur))
	}
	return out
}

// BenchmarkFullReplay times the reference runner's full replay of each
// walk candidate — the baseline TestIncrementalReplayFloor holds the move
// overlay to.
func BenchmarkFullReplay(b *testing.B) {
	base, opt := canonicalBenchWorkload(b)
	cands := benchCandidates(b, base, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opt
		o.Sched = cands[i%len(cands)]
		if _, err := runRef(o); err != nil {
			b.Fatal(err)
		}
	}
}

// walkSteps returns the canonical walk as moves, forward from base through
// every candidate and back again: each step is the window of the one
// stage where an order differs from the one before it. Steps that change
// nothing are left out.
func walkSteps(base *sched.Schedule, cands []*sched.Schedule) []Move {
	path := append([]*sched.Schedule{base}, cands...)
	for i := len(path) - 2; i >= 0; i-- {
		path = append(path, path[i])
	}
	var steps []Move
	for i := 1; i < len(path); i++ {
		for k, ops := range path[i].Stages {
			was := path[i-1].Stages[k]
			lo, hi := 0, len(ops)-1
			for lo <= hi && ops[lo] == was[lo] {
				lo++
			}
			if lo > hi {
				continue
			}
			for ops[hi] == was[hi] {
				hi--
			}
			steps = append(steps, Move{Stage: k, Lo: lo, Ops: ops[lo : hi+1]})
		}
	}
	return steps
}

// BenchmarkOverlayEval walks the same candidates as moves of one session:
// each step is an overlay Load and Eval, and the commit from the overlay
// that takes the session to the step's order.
func BenchmarkOverlayEval(b *testing.B) {
	base, opt := canonicalBenchWorkload(b)
	steps := walkSteps(base, benchCandidates(b, base, 64))
	se, err := NewSession(opt)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := se.Eval(base); err != nil {
		b.Fatal(err)
	}
	ov, err := se.NewOverlay()
	if err != nil {
		b.Fatal(err)
	}
	step := func(m Move) {
		if err := ov.Load(m); err != nil {
			b.Fatal(err)
		}
		if _, err := ov.Eval(); err != nil {
			b.Fatal(err)
		}
		if err := ov.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range steps {
		step(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(steps[i%len(steps)])
	}
}

// TestIncrementalReplayFloor is the simulator fast path's floor as a gate:
// per step of BenchmarkOverlayEval's walk, an overlay Load and Eval, with
// the commit that moves the session along, must run at least 3× faster
// than the reference full replay of a walk candidate (BenchmarkFullReplay)
// and allocate nothing.
func TestIncrementalReplayFloor(t *testing.T) {
	full := testing.Benchmark(BenchmarkFullReplay)
	inc := testing.Benchmark(BenchmarkOverlayEval)
	if full.N == 0 || inc.N == 0 {
		t.Fatal("a benchmark failed to run")
	}
	perOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	ratio := perOp(full) / perOp(inc)
	t.Logf("full replay %.0f ns, %d allocs; overlay step %.0f ns, %d allocs; %.1f×",
		perOp(full), full.AllocsPerOp(), perOp(inc), inc.AllocsPerOp(), ratio)
	if a := inc.AllocsPerOp(); a != 0 {
		t.Errorf("an overlay step allocates %d times, want 0", a)
	}
	if ratio < 3 {
		t.Errorf("an overlay step is %.2f× the full replay, want ≥ 3×", ratio)
	}
}

// TestSessionTwoStageDiff evaluates candidates that are each one move
// away from a current state, through sessions still holding the previous
// candidate, so that consecutive orders differ on two stages: that
// candidate's stage reverted plus a new stage moved. Each evaluation must
// match the reference replay bitwise.
func TestSessionTwoStageDiff(t *testing.T) {
	for _, tc := range sessionCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p := newSessionPair(t, tc.opt, tc.traced)
			cur := tc.opt.Sched
			if _, err := p.eval(t, tc.opt, cur, tc.name+" base"); err != nil {
				t.Fatal(err)
			}
			rng := sessLCG(5)
			last, twoStage := -1, 0
			for step := 0; step < 120; step++ {
				cand := *cur
				cand.Stages = append([][]sched.Op(nil), cur.Stages...)
				k := rng.next(cand.P)
				ops := append([]sched.Op(nil), cur.Stages[k]...)
				cand.Stages[k] = ops
				from := rng.next(len(ops))
				sessDisplace(ops, from, min(max(from+rng.next(9)-4, 0), len(ops)-1))
				o := tc.opt
				o.Sched = &cand
				if _, err := runRef(o); err != nil {
					continue // the annealer's certifier rejects it before simulation
				}
				if last >= 0 && last != k {
					twoStage++
				}
				if _, err := p.eval(t, tc.opt, &cand, fmt.Sprintf("%s step %d", tc.name, step)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				last = k
				if step%5 == 0 {
					cur, last = &cand, -1
				}
			}
			if twoStage < 20 {
				t.Fatalf("only %d evaluations diffed two stages", twoStage)
			}
		})
	}
}

// TestSessionCyclicIntermediate pins that an Eval carries nothing over
// from the order before it, even where the two orders mixed would
// deadlock. On DAPPLE(4, 6), move a swaps stage 1's B0 ahead of F3 and
// move b swaps stage 0's F3 behind B0; each certifies alone, but together
// they close B0@0 → F3@0 → F3@1 → B0@1 → B0@0. A session holding cur+a
// that evaluates cur+b must match the reference replay of cur+b bitwise.
func TestSessionCyclicIntermediate(t *testing.T) {
	s, err := sched.DAPPLE(4, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Sched: s, Costs: UniformCosts{Est: sched.UniformEst{F: 1, BFused: 2, Comm: 0.2}, Act: 1}}
	run := func(c *sched.Schedule) (*Result, error) {
		o := opt
		o.Sched = c
		return runRef(o)
	}
	f3, b0 := sched.Op{Kind: sched.F, Micro: 3}, sched.Op{Kind: sched.B, Micro: 0}
	swap := func(base *sched.Schedule, k int, first, second sched.Op) *sched.Schedule {
		c := *base
		c.Stages = append([][]sched.Op(nil), base.Stages...)
		ops := append([]sched.Op(nil), base.Stages[k]...)
		c.Stages[k] = ops
		p := slices.Index(ops, first)
		if p < 0 || p+1 >= len(ops) || ops[p+1] != second {
			t.Fatalf("stage %d: %v is not just before %v", k, first, second)
		}
		ops[p], ops[p+1] = ops[p+1], ops[p]
		return &c
	}
	a := swap(s, 1, b0, f3)
	b := swap(s, 0, f3, b0)
	if _, err := run(swap(a, 0, f3, b0)); !errors.Is(err, errs.ErrUncertified) {
		t.Fatalf("cur+a+b: got %v, want a deadlock", err)
	}
	if _, err := run(a); err != nil {
		t.Fatalf("cur+a: %v", err)
	}
	if _, err := run(b); err != nil {
		t.Fatalf("cur+b: %v", err)
	}
	p := newSessionPair(t, opt, true)
	if _, err := p.eval(t, opt, a, "cur+a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.eval(t, opt, b, "cyclic intermediate"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCyclicCandidate pins the deadlock verdict's exact message,
// for a one-op move and a whole reversed stage alike, and that the
// session recovers on the next Eval.
func TestSessionCyclicCandidate(t *testing.T) {
	s, err := sched.MEPipe(4, 1, 2, 4, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Sched: s, Costs: Unit()}
	p := newSessionPair(t, opt, true)
	if _, err := p.eval(t, opt, s, "base"); err != nil {
		t.Fatal(err)
	}
	// Stage 1's first F moved behind its own backward.
	shifted := sessClone(s)
	ops := shifted.Stages[1]
	for p, op := range ops {
		if op.Kind == sched.BAct && op.Micro == 0 && op.Slice == 1 {
			sessDisplace(ops, 0, p)
			break
		}
	}
	reversed := sessClone(s)
	slices.Reverse(reversed.Stages[0])
	// The recovery order: the first adjacent swap on stage 2 that runs.
	var good *sched.Schedule
	for i, ok := 0, false; !ok; i++ {
		good = sessClone(s)
		good.Stages[2][i], good.Stages[2][i+1] = good.Stages[2][i+1], good.Stages[2][i]
		_, err := runRef(Options{Sched: good, Costs: Unit()})
		ok = err == nil
	}
	for _, c := range []struct {
		name string
		s    *sched.Schedule
		want string
	}{
		{"shifted", shifted, "sim: session: 187 of 192 ops are on a program-order/dependency cycle (the order deadlocks): "},
		{"reversed", reversed, "sim: session: 192 of 192 ops are on a program-order/dependency cycle (the order deadlocks): "},
	} {
		_, err := p.eval(t, opt, c.s, c.name)
		if !errors.Is(err, errs.ErrUncertified) || err.Error() != c.want+errs.ErrUncertified.Error() {
			t.Fatalf("%s: got %v, want %q wrapping ErrUncertified", c.name, err, c.want)
		}
		if _, err := p.eval(t, opt, good, "recovery after "+c.name); err != nil {
			t.Fatalf("after %s: %v", c.name, err)
		}
	}
}

// offGrid is a round-robin placement whose host map sends global chunk 1
// off the pipeline, so dependency rows carry out-of-shape entries.
type offGrid struct{ sched.RoundRobin }

func (o offGrid) Host(g int) (int, int) {
	if g == 1 {
		return o.P, 0
	}
	return o.RoundRobin.Host(g)
}

// TestSessionAbsentDepMessage pins the bind error for a dependency outside
// the shape: the first one in stage-list order.
func TestSessionAbsentDepMessage(t *testing.T) {
	d, err := sched.DAPPLE(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh Schedule: the DepTable cache is keyed by shape, not by
	// placement.
	s := &sched.Schedule{Name: d.Name, P: 2, V: 1, S: 1, N: 2,
		Place: offGrid{sched.RoundRobin{P: 2, V: 1}}, Stages: d.Stages}
	_, err = NewSession(Options{Sched: s, Costs: Unit()})
	const want = "sim: session: op B[m0 s0 c0]@stage0 depends on absent op B[m0 s0 c0]@stage2: incompatible configuration"
	if err == nil || err.Error() != want {
		t.Fatalf("got  %v\nwant %s", err, want)
	}
}
