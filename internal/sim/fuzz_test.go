package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mepipe/internal/errs"
	"mepipe/internal/obs"
	"mepipe/internal/sched"
)

// FuzzIncrementalEquivalence is the differential gate behind the Session
// fast path: for arbitrary shapes, cost models, budgets, modes, and move
// sequences, the session's evaluation must be bitwise-identical to a
// fresh reference replay (runRef) — including agreeing on which orders
// deadlock and with what error class. An untraced session checks the
// results; unless the header turns tracing off, a traced session also
// records into an obs.Recorder and every step's recording must DeepEqual
// the runner's: each op's start and end, and every other event, dynamic
// drain and budget instants and tails included. In static mode every step
// is also run as a move through the incremental path, an Overlay, on a
// third session (see fuzzMove), whose committed order must evaluate as
// runRef does at the end of the stream. Byte layout:
//
//	[0..5]  shape + mode header (P, S, N, split/pieces/dynamic/trace-off,
//	        budget/tail/comm/zero-weight/reschedule/trace flags, budget
//	        level); the trace flag overrides trace-off
//	[6..]   move stream, 3 bytes per move: stage, from, to
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0x01, 0x00, 4, 0, 1, 2, 1, 5, 0})
	f.Add([]byte{1, 0, 1, 0x03, 0x03, 3, 0, 3, 9, 1, 2, 2, 0, 0, 7})
	f.Add([]byte{2, 1, 0, 0x07, 0x05, 2, 1, 4, 4, 0, 0, 11, 1, 8, 2})
	f.Add([]byte{0, 1, 2, 0x0f, 0x0f, 6, 0, 1, 1, 2, 3, 4, 1, 0, 2})
	f.Add([]byte{1, 1, 1, 0x05, 0x0a, 5, 3, 2, 1, 0, 9, 9, 2, 4, 4})
	f.Add([]byte{1, 1, 0, 0x01, 0x26, 4, 0, 1, 2, 1, 5, 0, 2, 3, 1})
	f.Add([]byte{2, 1, 1, 0x0f, 0x25, 2, 1, 4, 4, 0, 0, 11, 1, 8, 2})
	// A commit that kept the moved stage's old peak fails the next move.
	f.Add([]byte("000000111000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		opt, ok := fuzzHeader(data)
		if !ok {
			t.Skip()
		}
		sc, p, dynamicW := opt.Sched, opt.Sched.P, opt.DynamicW
		traced := data[3]&8 == 0 || data[4]&32 != 0
		var err error
		pair := newSessionPair(t, opt, traced)
		cur := sessClone(sc)
		var mv *Session
		var ov *Overlay
		committed := sessClone(sc)
		if !dynamicW {
			if mv, err = NewSession(opt); err != nil {
				t.Fatal(err)
			}
			if _, err := mv.Eval(sc); err != nil {
				t.Fatal(err)
			}
			if ov, err = mv.NewOverlay(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 6; i+2 < len(data); i += 3 {
			k := int(data[i]) % p
			ops := cur.Stages[k]
			if len(ops) < 2 {
				continue
			}
			from := int(data[i+1]) % len(ops)
			to := int(data[i+2]) % len(ops)
			if from == to {
				// Degenerate displace; swap adjacents instead so every
				// step perturbs something.
				to = (from + 1) % len(ops)
			}
			sessDisplace(ops, from, to)
			fullErr, incErr := pair.eval(t, opt, cur, fmt.Sprintf("move %d", i))
			if errors.Is(fullErr, errs.ErrUncertified) != errors.Is(incErr, errs.ErrUncertified) ||
				errors.Is(fullErr, errs.ErrIncompatible) != errors.Is(incErr, errs.ErrIncompatible) {
				t.Fatalf("move %d: error classes differ: full %v, incremental %v", i, fullErr, incErr)
			}
			if ov != nil {
				fuzzMove(t, opt, ov, committed, k, from, to, fmt.Sprintf("overlay move %d", i))
			}
		}
		if mv == nil {
			return
		}
		opt.Sched = committed
		want, err := runRef(opt)
		if err != nil {
			t.Fatalf("the committed order: %v", err)
		}
		got, err := mv.Eval(committed)
		if err != nil {
			t.Fatalf("evaluating the committed order: %v", err)
		}
		requireSameResult(t, want, got, "the committed order")
	})
}

// FuzzWriteOrderReplays gates WriteOrder, the order a resolved MEPipe
// plan carries: over FuzzIncrementalEquivalence's header and move stream,
// with split backward and DynamicW forced, the generated order and every
// moved order that does not deadlock are written back as the order the
// §5 engine ran. The dynamic Run of the order, the static Run of the
// rewritten clone and the dynamic Run of that clone must agree bit for
// bit, OOM verdicts included.
func FuzzWriteOrderReplays(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0x05, 0x01, 4, 0, 1, 2, 1, 5, 0})
	f.Add([]byte{1, 0, 1, 0x07, 0x03, 3, 0, 3, 9, 1, 2, 2, 0, 0, 7})
	f.Add([]byte{2, 1, 0, 0x07, 0x15, 2, 1, 4, 4, 0, 0, 11, 1, 8, 2})
	f.Add([]byte{0, 1, 2, 0x0f, 0x0f, 6, 0, 1, 1, 2, 3, 4, 1, 0, 2})
	f.Add([]byte{1, 1, 1, 0x05, 0x1f, 0, 3, 2, 1, 0, 9, 9, 2, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) > 3 {
			data[3] |= 0x05 // split backward, DynamicW
		}
		opt, ok := fuzzHeader(data)
		if !ok {
			t.Skip()
		}
		cur := opt.Sched
		replay := func(label string) {
			opt.Sched = cur
			want, err := Run(opt)
			if errors.Is(err, errs.ErrUncertified) {
				return // the move deadlocks: there is no order to write
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ran := opt
			ran.Sched = sessClone(cur)
			if err := WriteOrder(ran); err != nil {
				t.Fatalf("%s: WriteOrder: %v", label, err)
			}
			for _, dynamicW := range []bool{false, true} {
				ran.DynamicW = dynamicW
				got, err := Run(ran)
				if err != nil {
					t.Fatalf("%s: the written order, DynamicW=%v: %v", label, dynamicW, err)
				}
				requireSameResult(t, want, got, fmt.Sprintf("%s: the written order, DynamicW=%v", label, dynamicW))
			}
		}
		replay("the generated order")
		for i := 6; i+2 < len(data); i += 3 {
			ops := cur.Stages[int(data[i])%cur.P]
			from, to := int(data[i+1])%len(ops), int(data[i+2])%len(ops)
			if from == to {
				to = (from + 1) % len(ops)
			}
			sessDisplace(ops, from, to)
			replay(fmt.Sprintf("move %d", i))
		}
	})
}

// fuzzHeader decodes FuzzIncrementalEquivalence's shape and mode header
// (data[0..5]) into run options over a freshly generated SVPP schedule.
// It reports false when the input is too short or the shape does not
// generate.
func fuzzHeader(data []byte) (Options, bool) {
	if len(data) < 9 {
		return Options{}, false
	}
	p := 2 + int(data[0]%3)
	sl := 1 + int(data[1]%2)
	n := 2 + int(data[2]%3)
	split := data[3]&1 != 0
	pieces := 0
	if split && data[3]&2 != 0 {
		pieces = 2
	}
	useBudget := data[4]&1 != 0
	useTail := data[4]&2 != 0
	est := sched.UniformEst{F: 1, BFused: 2, BAct: 1, W: 1, WPiece: 0.5}
	if data[4]&4 != 0 {
		est.Comm = 0.25
	}
	if data[4]&8 != 0 {
		// Zero-weight ops stress the deadlock check: a re-solve that
		// trusted finish times alone could converge through a 0-cost
		// cycle.
		est.W, est.WPiece = 0, 0
	}
	sc, err := sched.SVPP(sched.SVPPOptions{
		P: p, V: 1, S: sl, N: n,
		Split: split, FineGrainedW: pieces,
		Reschedule: data[4]&16 != 0, Est: est,
	})
	if err != nil {
		return Options{}, false
	}
	opt := Options{Sched: sc, Costs: UniformCosts{Est: est, Act: 3, Grad: 1}, DynamicW: split && data[3]&4 != 0}
	if useBudget {
		lvl := int64(2 + data[5]%14)
		b := make([]int64, p)
		for i := range b {
			b[i] = lvl
		}
		opt.ActBudget = b
	}
	if useTail {
		opt.TailTime = func(k int) float64 { return 0.5 * float64(k+1) }
	}
	return opt, true
}

// fuzzMove runs a step of the move stream, ops[from] displaced to to on
// stage k, as a move of cur, the order the overlay's session holds, and
// checks it against runRef of the moved schedule bit for bit: the overlay
// returns a wrapped errs.ErrUncertified exactly when the moved order
// deadlocks, a wrapped errs.ErrOOM exactly when runRef marks it OOM, and
// otherwise runRef's Result. A feasible move is then committed, to the
// session from the overlay and to cur in place.
func fuzzMove(t *testing.T, opt Options, ov *Overlay, cur *sched.Schedule, k, from, to int, label string) {
	t.Helper()
	moved := sessClone(cur)
	sessDisplace(moved.Stages[k], from, to)
	lo, hi := min(from, to), max(from, to)
	if err := ov.Load(Move{Stage: k, Lo: lo, Ops: moved.Stages[k][lo : hi+1]}); err != nil {
		t.Fatalf("%s: Load: %v", label, err)
	}
	got, err := ov.Eval()
	opt.Sched = moved
	want, wantErr := runRef(opt)
	switch {
	case wantErr != nil:
		if !errors.Is(wantErr, errs.ErrUncertified) || !errors.Is(err, errs.ErrUncertified) {
			t.Fatalf("%s: runRef %v, overlay %v", label, wantErr, err)
		}
		return
	case want.OOM:
		if !errors.Is(err, errs.ErrOOM) {
			t.Fatalf("%s: runRef marks OOM, overlay returned %v", label, err)
		}
		return
	case err != nil:
		t.Fatalf("%s: runRef succeeds, overlay returned %v", label, err)
	}
	requireSameResult(t, want, got, label)
	if err := ov.Commit(); err != nil {
		t.Fatalf("%s: Commit: %v", label, err)
	}
	copy(cur.Stages[k], moved.Stages[k])
}

// fuzzSameTrace requires DeepEqual recordings, naming the first differing
// event when they are not.
func fuzzSameTrace(t *testing.T, full, inc *obs.Trace) {
	t.Helper()
	if reflect.DeepEqual(full, inc) {
		return
	}
	for i := 0; i < len(full.Events) && i < len(inc.Events); i++ {
		if full.Events[i] != inc.Events[i] {
			t.Fatalf("trace event %d: full %+v, incremental %+v", i, full.Events[i], inc.Events[i])
		}
	}
	t.Fatalf("traces differ: full %d events (makespan %v, bubble %v), incremental %d (makespan %v, bubble %v)",
		len(full.Events), full.Makespan, full.Bubble, len(inc.Events), inc.Makespan, inc.Bubble)
}
